"""Tests for the command line front end.

The contract under test: exit code 0 when all checks pass, 1 when a
numeric check fails, 2 on usage errors; json/csv/text formats; --out.
"""

import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from qspecial import identities
from qspecial.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_gammaq(capsys):
    code, out, _ = run_cli(["eval", "gammaq", "z=3", "q=0.5"], capsys)
    assert code == 0
    assert out.strip().splitlines()[-1] == "1.5"


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


def test_eval_unknown_target(capsys):
    code, _, err = run_cli(["eval", "nope", "q=0.5"], capsys)
    assert code == 2


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
