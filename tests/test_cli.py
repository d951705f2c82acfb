"""Tests for the command line front end.

The contract under test: exit code 0 when all checks pass, 1 when a
numeric check fails, 2 on usage errors; json/csv/text formats; --out.
"""

import ast
import csv
import functools
import io
import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from qspecial import cli, identities, qorthopoly
from qspecial.cli import main
from qspecial.qfunctions import gamma_q


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_gammaq(capsys):
    code, out, _ = run_cli(["eval", "gammaq", "z=3", "q=0.5"], capsys)
    assert code == 0
    assert out.strip().splitlines()[-1] == "1.5"


def test_eval_gammaq_outside_the_double_range_is_an_error(capsys):
    code, out, err = run_cli(["eval", "gammaq", "z=-3016.9359001245466", "q=0.3885"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: Gamma_q: ")


def test_eval_gammaq_next_to_a_pole_is_a_value_and_at_it_an_error(capsys):
    code, out, err = run_cli(["eval", "gammaq", "z=-1.999999999", "q=0.9"], capsys)
    assert (code, err) == (0, "")
    # 364163156.19784284 is the 60-digit Gamma_q(-1.999999999) at q = 0.9
    assert float(out.strip().splitlines()[-1]) == pytest.approx(364163156.19784284, rel=1e-13)
    code, out, err = run_cli(["eval", "gammaq", "z=-2", "q=0.9"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: Gamma_q: pole")


def test_eval_besselq2_outside_the_double_range_is_an_error(capsys):
    argv = ["eval", "besselq2", "nu=3.4686266780376136", "z=99271.47664586779",
            "q=0.8506938275405417"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: jackson_bessel_2: ")
    assert "Traceback" not in err


def test_eval_besselq1_at_its_pole_is_an_error(capsys):
    code, out, err = run_cli(["eval", "besselq1", "nu=-1.5", "z=0", "q=0.5"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: jackson_bessel_1: ")
    assert "Traceback" not in err


def test_eval_phi_empty(capsys):
    code, out, _ = run_cli(
        ["eval", "phi", "upper=0", "lower=", "q=0.5", "z=0"], capsys
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "1"


def test_eval_aw_degree_zero(capsys):
    code, out, _ = run_cli(
        [
            "eval",
            "aw",
            "n=0",
            "x=0.3",
            "a=0.5",
            "b=0.4",
            "c=-0.3",
            "d=0.2",
            "q=0.5",
        ],
        capsys,
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "1"


def test_eval_family(capsys):
    code, out, _ = run_cli(
        ["eval", "family:wall", "n=2", "x=0.3", "a=0.4", "q=0.5"], capsys
    )
    assert code == 0
    value = float(out.strip().splitlines()[-1])
    from qspecial import FamilyParams, family_eval

    want = complex(family_eval(FamilyParams("wall", 0.5, a=0.4), 2, 0.3)).real
    assert value == pytest.approx(want, rel=1e-15)


def test_eval_17_digit_output(capsys):
    code, out, _ = run_cli(["eval", "gammaq", "z=2.5", "q=0.5"], capsys)
    assert code == 0
    digits = out.strip().splitlines()[-1].replace(".", "").lstrip("-")
    assert len(digits) >= 16


def test_eval_bad_value_is_usage_error(capsys):
    code, _, err = run_cli(["eval", "gammaq", "z=oops", "q=0.5"], capsys)
    assert code == 2
    assert "z" in err


def test_eval_psi_with_more_upper_than_lower_parameters_is_an_error(capsys):
    # an r > s bilateral series diverges for every z: a domain error,
    # not an overflow traceback
    code, _, err = run_cli(
        ["eval", "psi", "upper=0.5,0.6", "lower=0.3", "q=0.5", "z=2"], capsys
    )
    assert code == 2
    assert err.startswith("error: bilateral series with r > s diverges")
    assert "Traceback" not in err


def test_eval_unknown_target(capsys):
    code, _, err = run_cli(["eval", "nope", "q=0.5"], capsys)
    assert code == 2


# the first parameter of each eval target, as its function declares it
FIRST_PARAMETER = {
    "phi": "upper",
    "psi": "upper",
    "eq": "z",
    "Eq": "z",
    "gammaq": "z",
    "betaq": "a",
    "theta4": "x",
    "besselq1": "nu",
    "besselq2": "nu",
    "besselhe": "nu",
    "aw": "n",
}


def test_eval_table_lists_every_target():
    assert sorted(cli._EVAL) == sorted(FIRST_PARAMETER)
    assert cli.EVAL_TARGETS.split(", ") == [*FIRST_PARAMETER][:-1] + ["family:<name>", "aw"]


@pytest.mark.parametrize("target", sorted(FIRST_PARAMETER))
def test_eval_target_reads_its_function_parameters(target, capsys):
    code, _, err = run_cli(["eval", target], capsys)
    assert (code, err) == (2, f"error: missing parameter {FIRST_PARAMETER[target]!r}\n")
    fn = cli._EVAL[target].__code__
    params = [f"{k}=1" for k in fn.co_varnames[: fn.co_argcount]]
    code, _, err = run_cli(["eval", target, *params, "bogus=1"], capsys)
    assert (code, err) == (2, "error: unknown parameter 'bogus'\n")


def test_integer_parameters_accept_integral_numbers(capsys):
    aw = ["x=0.1", "a=0.6", "b=0.4", "c=-0.3", "d=0.2", "q=0.55"]
    code, out, _ = run_cli(["eval", "aw", "n=3e0", *aw], capsys)
    assert code == 0
    assert out.splitlines()[-1] == run_cli(["eval", "aw", "n=3", *aw], capsys)[1].splitlines()[-1]
    code, _, err = run_cli(["eval", "aw", "n=2.5", *aw], capsys)
    assert (code, err) == (2, "error: parameter 'n' is not an integer: '2.5'\n")
    racah = ["ortho", "q_racah", "alpha=512", "beta=0.4", "gamma=0.5", "delta=0.2", "q=0.5"]
    code, out, _ = run_cli([*racah, "N=8.0", "--nmax", "3"], capsys)
    assert code == 0
    assert (code, out) == run_cli([*racah, "N=8", "--nmax", "3"], capsys)[:2]


def test_table_over_the_degree_matches_eval(capsys):
    aw = ["x=0.1", "a=0.6", "b=0.4", "c=-0.3", "d=0.2", "q=0.55"]
    code, out, _ = run_cli(
        ["table", "aw", *aw, "--grid", "n=0:3:1", "--format", "csv"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 4
    for k, (n, value) in enumerate(rows):
        assert float(n) == k
        code, out, _ = run_cli(["eval", "aw", f"n={k}", *aw], capsys)
        assert (code, out.splitlines()[-1]) == (0, value)


def test_table_over_two_grids_is_row_major(capsys):
    # the last grid varies fastest, and each row is the eval at its point
    aw = ["a=0.6", "b=0.4", "c=-0.3", "d=0.2", "q=0.55"]
    grids = ["--grid", "n=0:2:1", "--grid", "x=-0.5:0.5:0.5", "--format", "csv"]
    code, out, _ = run_cli(["table", "aw", *aw, *grids], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "x", "value"]
    points = [(n, x) for n in (0, 1, 2) for x in (-0.5, 0.0, 0.5)]
    assert [(float(n), float(x)) for n, x, _ in rows[1:]] == points
    for (n, x), row in zip(points, rows[1:]):
        code, out, _ = run_cli(["eval", "aw", f"n={n}", f"x={x}", *aw], capsys)
        assert (code, out.splitlines()[-1]) == (0, row[2])


def test_readme_command_lines_run(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [
        shlex.split(line)[1:]
        for line in block.splitlines()
        if line.split()[:2] in (["qspecial", "eval"], ["qspecial", "ortho"], ["qspecial", "table"])
    ]
    assert len(lines) >= 7
    for argv in lines:
        assert run_cli(argv, capsys)[0] == 0, argv


def test_eval_json_round_trip(capsys):
    code, out, _ = run_cli(
        ["eval", "gammaq", "z=3", "q=0.5", "--format", "json"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["target"] == "gammaq"
    assert data["value"] == pytest.approx(1.5)
    assert json.loads(json.dumps(data)) == data


def test_verify_single_identity(capsys):
    code, out, _ = run_cli(
        ["verify", "q_saalschutz", "--samples", "5", "--seed", "1"], capsys
    )
    assert code == 0
    assert "PASS" in out


def test_verify_unknown_identity_usage_error(capsys):
    code, _, err = run_cli(["verify", "bogus"], capsys)
    assert code == 2


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(
        [
            "verify",
            "q_binomial_theorem",
            "--samples",
            "4",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert isinstance(data, list) and len(data) == 1
    rec = data[0]
    for key in ("id", "samples", "max_rel_error", "tolerance", "failures", "seed"):
        assert key in rec


def test_verify_tolerance_override_failure(capsys):
    code, out, _ = run_cli(
        [
            "verify",
            "q_binomial_theorem",
            "--samples",
            "4",
            "--tolerance",
            "q_binomial_theorem=1e-30",
        ],
        capsys,
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_json_failure_payload(capsys, monkeypatch):
    # a real-valued side (negligible imaginary part) is written as a
    # number, a complex-valued one as [re, im]
    record = identities.IdentityRecord(
        "pinned_failure",
        lambda p: complex(p["x"], 1e-15),
        lambda p: complex(p["x"], 0.25),
        lambda rng: {"x": 0.5, "z": complex(1.0, -2.0)},
        "PRODUCT_SERIES",
        "a pair of sides that differ",
    )
    monkeypatch.setitem(identities._REGISTRY, "pinned_failure", record)
    code, out, _ = run_cli(
        ["verify", "pinned_failure", "--samples", "1", "--format", "json"], capsys
    )
    assert code == 1
    assert json.loads(out)[0]["failures"] == [
        {"params": {"x": 0.5, "z": [1.0, -2.0]}, "lhs": 0.5, "rhs": [0.5, 0.25]}
    ]


def test_ortho_big_qjacobi_passes(capsys):
    code, out, _ = run_cli(
        [
            "ortho",
            "big_qjacobi",
            "a=0.95",
            "b=0.3",
            "c=0.855",
            "d=1.0",
            "q=0.9",
            "--nmax",
            "3",
        ],
        capsys,
    )
    assert code == 0
    assert "BREACH" not in out


def test_ortho_aw_good_parameters(capsys):
    code, out, _ = run_cli(
        [
            "ortho",
            "aw",
            "a=0.6",
            "b=0.4",
            "c=-0.3",
            "d=0.2",
            "q=0.55",
            "--nmax",
            "3",
            "--nodes",
            "512",
        ],
        capsys,
    )
    assert code == 0


def test_ortho_aw_near_q_one(capsys):
    # 231 peeled factors per node: the grid's products need the log series
    code, out, _ = run_cli(
        ["ortho", "aw", "a=0.6", "b=0.4", "c=-0.3", "d=0.2", "q=0.997",
         "--nmax", "3", "--nodes", "512", "--format", "json"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 10
    assert all(row["status"] == "ok" for row in rows)


def test_ortho_aw_large_parameter_detected(capsys):
    # |a| > 1 puts mass on discrete spectrum the quadrature cannot see
    code, out, _ = run_cli(
        [
            "ortho",
            "aw",
            "a=1.8",
            "b=0.3",
            "c=-0.2",
            "d=0.1",
            "q=0.5",
            "--nmax",
            "3",
        ],
        capsys,
    )
    assert code == 1
    assert "continuous-part-only quadrature" in out
    assert "BREACH" in out


def test_ortho_nmax_zero_trivial_pass(capsys):
    code, _, _ = run_cli(
        [
            "ortho",
            "aw",
            "a=0.6",
            "b=0.4",
            "c=-0.3",
            "d=0.2",
            "q=0.55",
            "--nmax",
            "0",
        ],
        capsys,
    )
    assert code == 0


def test_ortho_bad_nodes(capsys):
    code, _, _ = run_cli(
        [
            "ortho",
            "aw",
            "a=0.6",
            "b=0.4",
            "c=-0.3",
            "d=0.2",
            "q=0.55",
            "--nodes",
            "100",
        ],
        capsys,
    )
    assert code == 2


RACAH = ["ortho", "q_racah", "alpha=512", "beta=0.4", "gamma=0.5", "delta=0.2", "q=0.5", "N=8"]


@pytest.mark.parametrize(
    "argv",
    [
        [*RACAH, "--nmax", "3"],
        [*RACAH[:2], "alpha=0", "beta=0.4", "gamma=32", "delta=0.3", "q=0.5", "N=4", "--nmax", "4"],
        [*RACAH[:2], "alpha=0.3", "beta=0", "gamma=32", "delta=0.3", "q=0.5", "N=4", "--nmax", "4"],
    ],
)
def test_ortho_q_racah_checks_every_diagonal_against_its_closed_norm(argv, capsys, monkeypatch):
    code, out, err = run_cli([*argv, "--format", "json"], capsys)
    assert (code, err) == (0, "")
    diag = [row for row in json.loads(out) if row["n"] == row["m"]]
    assert len(diag) == int(argv[-1]) + 1
    assert all(isinstance(row["closed"], float) and row["status"] == "ok" for row in diag)
    # norms off by one part in a million are a breach
    record = qorthopoly._FAMILIES["q_racah"]
    spoiled = lambda *args: [h * (1 + 1e-6) for h in record.norms(*args)]
    monkeypatch.setitem(qorthopoly._FAMILIES, "q_racah", record._replace(norms=spoiled))
    code, out, _ = run_cli(argv, capsys)
    assert code == 1
    assert "BREACH" in out


def test_ortho_q_racah_on_a_folded_lattice_is_an_error(capsys):
    # gamma delta q = 8 = q^-3: mu(x) = mu(3 - x), so the measure collapses
    argv = [*RACAH[:2], "alpha=0.3", "beta=0.4", "gamma=32", "delta=0.5", "q=0.5", "N=4"]
    code, out, err = run_cli([*argv, "--nmax", "2"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: gamma*delta*q = q^-3: ")
    code, out, err = run_cli([*argv, "--nmax", "5"], capsys)
    assert (code, out, err) == (2, "", "error: degree exceeds N\n")
    # gamma delta q beyond the double range is an error too, not a traceback
    argv = [*RACAH[:2], "alpha=16", "beta=1e-250", "gamma=1e200", "delta=1e200", "q=0.5", "N=3"]
    code, out, err = run_cli([*argv, "--nmax", "2"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: argument must be finite")


def test_ortho_al_salam_carlitz_u_closed_diagonals(capsys):
    code, out, _ = run_cli(
        [
            "ortho",
            "al_salam_carlitz_u",
            "a=-0.6",
            "q=0.5",
            "--nmax",
            "4",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    diag = [row for row in json.loads(out) if row["n"] == row["m"]]
    assert len(diag) == 5
    for row in diag:
        assert isinstance(row["closed"], float)
        assert row["rel_error"] <= 1e-8
        assert row["status"] == "ok"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "gammaq", "z=3", "q=0.5", "--seed", "1"],
        ["eval", "gammaq", "z=3", "q=0.5", "--samples", "3"],
        ["eval", "gammaq", "z=3", "q=0.5", "--tolerance", "x=1"],
        ["table", "theta4", "q=0.5", "--grid", "x=0:1:0.5", "--seed", "1"],
        ["ortho", "wall", "a=0.4", "q=0.5", "--samples", "3"],
        ["limits", "exp_from_Eq", "--q", "0.3"],
        ["verify", "q_saalschutz", "--q", "0.3"],
    ],
)
def test_option_outside_its_subcommand_is_usage_error(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert "unrecognized arguments" in err


def test_table_theta4_grid(capsys):
    code, out, _ = run_cli(
        ["table", "theta4", "q=0.5", "--grid", "x=0:1:0.1"], capsys
    )
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 12  # header + 11 rows


def test_table_csv_format(capsys):
    code, out, _ = run_cli(
        [
            "table",
            "theta4",
            "q=0.5",
            "--grid",
            "x=0:1:0.1",
            "--format",
            "csv",
        ],
        capsys,
    )
    assert code == 0
    assert "\r" not in out
    reader = list(csv.reader(io.StringIO(out)))
    assert reader[0] == ["x", "value"]
    assert len(reader) == 12
    for row in reader[1:]:
        float(row[0])
        float(row[1])


def test_table_malformed_grid(capsys):
    code, _, _ = run_cli(
        ["table", "theta4", "q=0.5", "--grid", "x=0:1"], capsys
    )
    assert code == 2
    # a non-finite end or step, and grids past the row cap: the last would
    # list 10^12 values if its rows were not counted first
    for grid, message in [
        ("z=0:0.5:nan", "must be finite"),
        ("z=inf:inf:1", "must be finite"),
        ("z=0:1:1e-12", "more than"),
        ("z=-1e308:1e308:1", "more than"),
    ]:
        code, out, err = run_cli(["table", "eq", "q=0.5", "--grid", grid], capsys)
        assert (code, out) == (2, ""), grid
        assert err.startswith("error: grid") and message in err, grid


def test_finite_weights_outside_their_domain_are_errors(capsys):
    # a power of a weight past the double range, and (aq)^{-x} at a = 0
    for argv, error in [
        ("ortho q_krawtchouk b=1e200 N=10 q=0.5 --nmax 3", "outside the double range"),
        ("ortho q_hahn a=1e-300 b=0.4 N=10 q=0.5 --nmax 3", "outside the double range"),
        ("ortho affine_q_krawtchouk a=0 N=3 q=0.5 --nmax 2", "undefined"),
    ]:
        code, out, err = run_cli(argv.split(), capsys)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: weight power") and error in err, argv
        assert "Traceback" not in err


def test_norm_lists_outside_their_domain_are_errors(capsys):
    # 1 - q^{2n+1}ab = 0 at n = 1, and h_71 of big q-Jacobi past the double
    # range, where (cd)^n overflowed from n = 52
    for argv, error in [
        ("ortho little_q_jacobi a=0.5 b=16 q=0.5 --nmax 2", "norm at n = 1 divides by 0"),
        (
            "ortho big_qjacobi a=0.5 b=0.4 c=1e3 d=1e3 q=0.9 --nmax 120",
            "norm h_71 outside the double range",
        ),
    ]:
        code, out, err = run_cli(argv.split(), capsys)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and error in err, argv
        assert "Traceback" not in err


def test_limits_single_path(capsys):
    from qspecial import list_paths

    code, out, _ = run_cli(["limits", list_paths()[0]], capsys)
    assert code == 0
    assert "PASS" in out


def test_limits_unknown_path(capsys):
    code, _, _ = run_cli(["limits", "nowhere"], capsys)
    assert code == 2


def test_limits_json(capsys):
    from qspecial import list_paths

    code, out, _ = run_cli(
        ["limits", list_paths()[0], "--format", "json"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data[0]["passed"] is True
    assert data[0]["final_error"] <= 1e-3


def _indented_json(items, out):
    # the JSON writer this layout replaced
    out.write(json.dumps(items, indent=2) + "\n")


def test_json_arrays_have_one_element_per_line(capsys, monkeypatch):
    # the parsed payload is the one the indent=2 writer gave; only the
    # whitespace moves
    family_gram = cli.family_gram_matrix

    def gram_with_a_complex_entry(*args):
        gram = family_gram(*args)
        gram[0, 1] += 0.25j
        return gram

    monkeypatch.setattr(cli, "family_gram_matrix", gram_with_a_complex_entry)
    commands = [
        ["ortho", "aw", "a=0.6", "b=0.4", "c=-0.3", "d=0.2", "q=0.55", "--nmax", "3"],
        ["ortho", "q_racah", "alpha=512", "beta=0.4", "gamma=0.5", "delta=0.2", "q=0.5",
         "N=8", "--nmax", "2"],
        ["verify", "q_saalschutz", "--samples", "2"],
        ["limits", "all"],
        ["table", "theta4", "q=0.5", "--grid", "x=0:1:0.25"],
    ]
    for argv in commands:
        argv = [*argv, "--format", "json"]
        code, out, _ = run_cli(argv, capsys)
        data = json.loads(out)
        if argv[1] == "q_racah":
            assert data[1]["gram"][1] == 0.25  # entry (0, 1) as [re, im]
        lines = out.splitlines()
        assert (lines[0], lines[-1], len(lines)) == ("[", "]", len(data) + 2), argv
        assert [json.loads(line.rstrip(",")) for line in lines[1:-1]] == data
        with monkeypatch.context() as m:
            m.setattr(cli, "_write_json", _indented_json)
            indented_code, indented, _ = run_cli(argv, capsys)
        assert (indented_code, json.loads(indented)) == (code, data), argv


def test_src_has_no_indented_json_dumps():
    # json.dumps with indent runs the pure-Python encoder
    for path in Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "dumps":
                assert not any(k.arg == "indent" for k in node.keywords), path


def test_eval_target_behind_a_wraps_wrapper(capsys, monkeypatch):
    # a functools.wraps wrapper, as a tracer installs, keeps the target's keys
    calls = []

    @functools.wraps(gamma_q)
    def traced(*args, **kwargs):
        calls.append(args)
        return gamma_q(*args, **kwargs)

    monkeypatch.setitem(cli._EVAL, "gammaq", traced)
    code, out, _ = run_cli(["eval", "gammaq", "z=3", "q=0.5"], capsys)
    assert (code, out.splitlines()[-1], calls) == (0, "1.5", [(3.0, 0.5)])


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "result.txt"
    code = main(["eval", "gammaq", "z=3", "q=0.5", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_text().strip().splitlines()[-1] == "1.5"


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_closed_output_pipe_exits_without_traceback():
    # 12 001 csv rows (about 360 kB) overfill the pipe, so the program is
    # still writing when the reader goes away after one line
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = ["table", "eq", "q=0.5", "--grid", "z=-3000:0:0.25", "--format", "csv"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "qspecial.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"z,value\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err
    assert "BrokenPipeError" not in err


def test_ortho_overflowing_gram_exits_with_an_error():
    # the degree-50 Wall values overflow far down the lattice; the walk
    # stops there instead of running on toward its term budget
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = ["ortho", "wall", "a=0.4", "q=0.5", "--nmax", "50"]
    proc = subprocess.run(
        [sys.executable, "-m", "qspecial.cli", *argv],
        capture_output=True,
        env=env,
        timeout=10,
    )
    assert proc.returncode == 2
    assert "error: Gram entry overflows the double range" in proc.stderr.decode()
    assert "Traceback" not in proc.stderr.decode()


def test_ortho_moak_report_passes_without_numpy_warnings(capsys):
    # the lattice walk forms magnitudes for nodes past its stop, where the
    # degree-15 entries overflow; those nodes are never summed
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(
            ["ortho", "moak", "alpha=0.7", "q=0.5", "--nmax", "15"], capsys
        )
    assert code == 0
    assert err == ""
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 16 * 17 // 2
    assert all(row.split()[-1] == "ok" for row in rows)


def test_ortho_moak_gram_with_finite_entries_passes(capsys):
    # v_n^2 overflows at nodes where v_n v_m u, the summed magnitude, is
    # finite; the walk forms it in that order and never sees the overflow
    code, out, err = run_cli(["ortho", "moak", "alpha=0.7", "q=0.2", "--nmax", "12"], capsys)
    assert (code, err) == (0, "")
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 13 * 14 // 2
    assert all(row.split()[-1] == "ok" for row in rows)


def test_ortho_moak_up_walk_past_weight_underflow_names_its_node(capsys):
    # the up-walk weight falls below the double range at node 27 while the
    # terms v_n v_m w (1-q) x still grow; the walk keeps the weight's digits
    # and goes on until the degree-16 values overflow at node 38, which it
    # names.  numpy does not warn of the overflow.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(
            ["ortho", "moak", "alpha=0.7", "q=0.15", "--nmax", "16"], capsys
        )
    assert (code, out) == (2, "")
    assert err == "error: Gram entry overflows the double range at node 38\n"


def test_ortho_finite_gram_past_the_double_range_names_its_point(capsys):
    # the q-Hahn weights grow like 1e28^x at a = 1e-27; from x = 10 the
    # terms v_n w v_m of the degree-11 values leave the double range, and
    # the report names that point instead of printing inf and NaN entries.
    # numpy does not warn of the overflow.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(
            ["ortho", "q_hahn", "a=1e-27", "b=0.5", "N=11", "q=0.1", "--nmax", "11"], capsys
        )
    assert (code, out) == (2, "")
    assert err == "error: Gram entry overflows the double range at point x = 10\n"


def test_cached_parser_is_reentrant(capsys, monkeypatch):
    # in-process callers share one parser; each call must print and exit as
    # it does with a parser of its own, and no --tolerance list may carry over
    calls = [
        ["ortho", "moak", "alpha=0.7", "q=0.5", "--nmax", "3"],
        ["verify", "q_gauss", "--samples", "2", "--tolerance", "q_gauss=1e-6"],
        ["verify", "q_gauss", "--samples", "2"],
        ["verify", "q_gauss", "--samples", "two"],
        ["ortho", "moak", "alpha=0.7", "q=0.5", "--nmax", "3"],
    ]
    with monkeypatch.context() as m:
        m.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [run_cli(argv, capsys)[:2] for argv in calls]
    assert [code for code, _ in fresh] == [0, 0, 0, 2, 0]
    assert fresh[1][1] != fresh[2][1]
    cli._build_parser.cache_clear()
    assert [run_cli(argv, capsys)[:2] for argv in calls] == fresh
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(calls) - 1)
    assert cli._build_parser().parse_args(calls[2]).tolerance is None


def _two_level(argv):
    """The reference parse: the top parser's parse_args, which hands a
    command's arguments to its subparser and reports what is left over."""
    try:
        args = cli._build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return cli._run(args.command, args)


PARSE_CASES = [
    ["eval", "gammaq", "z=3", "q=0.5"],
    ["verify", "q_gauss", "--samples", "2", "--seed", "3"],
    ["ortho", "moak", "alpha=0.7", "q=0.5", "--nmax", "2"],
    ["table", "theta4", "q=0.5", "--grid", "x=0:0.2:0.1"],
    ["limits", "exp_from_Eq"],
    ["ortho", "wall", "a=0.4", "--q", "0.5", "--nmax", "2"],
    ["ortho", "wall", "a=0.4", "q=0.5", "--nmax", "2", "--out", "{out}"],
    ["ortho", "wall", "a=0.4", "q=0.5", "--nmax", "2", "--format", "csv"],
    ["ortho", "aw", "a=0.6", "b=0.4", "c=-0.3", "d=0.2", "q=0.55", "--format", "json"],
    [],
    ["--help"],
    ["ortho", "--help"],
    ["nosuch", "x=1"],
    ["ortho", "wall", "a=0.4", "q=0.5", "--bogus"],
    ["ortho", "wall", "a=0.4", "q=0.5", "--nmax", "two"],
    ["verify", "all", "extra"],
    ["ortho", "aw", "a=0.6", "--nmax", "2", "b=0.4", "c=-0.3", "d=0.2", "q=0.55"],
    ["--q", "0.5", "ortho", "wall", "a=0.4"],
]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=lambda a: " ".join(a) or "no-arguments")
def test_command_parser_matches_the_two_level_parse(argv, tmp_path, capsys):
    # main parses a command's arguments with its subparser alone; exit
    # code, stdout, stderr and the --out file are those of the full parse
    target = tmp_path / "report.txt"
    argv = [a.format(out=target) for a in argv]
    seen = []
    for run in (main, _two_level):
        code = run(list(argv))
        out, err = capsys.readouterr()
        written = target.read_text() if target.exists() else None
        target.unlink(missing_ok=True)
        seen.append((code, out, err, written))
    assert seen[0] == seen[1]
    assert seen[0][0] in (0, 2)
