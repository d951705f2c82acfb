"""Command-line front end: evaluation, identity verification, Gram
reports, value tables, and limit diagnostics.

The key=value parameters of an eval, table or ortho target are the
parameter names of the function that _EVAL or _ORTHO holds for it, read
in its order; n and N are integers, upper and lower comma lists, and
every other key a number.

Exit codes: 0 all checks pass, 1 a numeric check failed or the reader
closed the output pipe early (without a traceback), 2 usage error.
"""

import argparse
import functools
import inspect
import itertools
import json
import math
import os
import sys

from qspecial.askey_wilson import (
    AWParams,
    aw_gram_quadrature,
    aw_norms,
    aw_poly,
    q_racah_gram_matrix,
)
from qspecial.errors import QSpecialError
from qspecial.identities import _jsonable, list_identities, verify
from qspecial.limits import list_paths, run_limit
from qspecial.qfunctions import (
    E_q,
    beta_q,
    e_q,
    gamma_q,
    hahn_exton_bessel,
    jackson_bessel_1,
    jackson_bessel_2,
    theta4,
)
from qspecial.qorthopoly import (
    BigQJacobiParams,
    FamilyParams,
    big_qjacobi_gram_matrix,
    big_qjacobi_norms,
    family_eval,
    family_gram_matrix,
    family_norms,
)
from qspecial.qseries import SeriesSpec, eval_phi, eval_psi

OFFDIAG_TOL = 1e-9
DIAG_TOL = 1e-8


class UsageError(Exception):
    """Malformed command line; maps to exit code 2."""


# ---------------------------------------------------------------------------
# formatting


def _fmt(x):
    """17 significant digits; drops an imaginary part that _jsonable drops."""
    if isinstance(x, complex):
        x = _jsonable(x)
        if isinstance(x, list):
            return "%.17g%+.17gj" % tuple(x)
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _write_json(items, out):
    """Write a JSON array with one element per line.  json.dumps without
    indent runs CPython's C encoder; with indent it runs the pure-Python one."""
    lines = ",\n".join(json.dumps(item) for item in items)
    out.write(f"[\n{lines}\n]\n" if items else "[]\n")


def _emit_rows(header, rows, fmt, out):
    """Write a uniform table in the selected format.

    rows are sequences matching header; numbers are rendered with _fmt.
    """
    if fmt == "json":
        _write_json([{k: _jsonable(v) for k, v in zip(header, row)} for row in rows], out)
    elif fmt == "csv":
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(_fmt(v) for v in row) + "\n")
    else:
        cells = [[_fmt(v) for v in row] for row in rows]
        widths = [max([len(h), *(len(r[i]) for r in cells)]) for i, h in enumerate(header)]
        for row in [header, *cells]:
            out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")


# ---------------------------------------------------------------------------
# parameter parsing


def _parse_kv(tokens):
    params = {}
    for tok in tokens:
        if "=" not in tok:
            raise UsageError(
                f"malformed parameter {tok!r} (expected key=value)"
            )
        key, _, value = tok.partition("=")
        if not key:
            raise UsageError(f"malformed parameter {tok!r} (empty key)")
        params[key] = value
    return params


def _integral(raw):
    """int(raw), or an integral number such as 3.0 or 3e0 (a grid value)."""
    try:
        return int(raw)
    except ValueError:
        value = float(raw)
        if not value.is_integer():
            raise
        return int(value)


def _number_list(raw):
    return [float(v) for v in raw.split(",")] if raw else []


_NUMBER = (float, "a number")
_INTEGER = (_integral, "an integer")
_LIST = (_number_list, "a number list")
_READ = {"n": _INTEGER, "N": _INTEGER, "upper": _LIST, "lower": _LIST}


def _pop(params, key, read=None):
    """Remove params[key] and parse it: n and N as integers, upper and
    lower as comma lists, any other key as a number (read overrides)."""
    if key not in params:
        raise UsageError(f"missing parameter {key!r}")
    raw = params.pop(key)
    parse, kind = read or _READ.get(key, _NUMBER)
    try:
        return parse(raw)
    except ValueError:
        raise UsageError(f"parameter {key!r} is not {kind}: {raw!r}")


def _call(fn, params, *lead):
    """fn(*lead, ...) with its remaining parameters popped from params
    by name, in declaration order; a leftover key is a usage error.  The
    names are those of the function a functools.wraps wrapper wraps."""
    code = inspect.unwrap(fn).__code__
    names = code.co_varnames[len(lead) : code.co_argcount]
    values = [_pop(params, key) for key in names]
    if params:
        raise UsageError(f"unknown parameter {sorted(params)[0]!r}")
    return fn(*lead, *values)


def _params(args):
    """The key=value parameters, with --q as the default of q."""
    params = _parse_kv(args.params)
    if args.q is not None and "q" not in params:
        params["q"] = repr(args.q)
    return params


def _tolerance_overrides(pairs):
    overrides = {}
    for tok in pairs or []:
        if "=" not in tok:
            raise UsageError(
                f"malformed --tolerance {tok!r} (expected id=value)"
            )
        key, _, value = tok.partition("=")
        try:
            overrides[key] = float(value)
        except ValueError:
            raise UsageError(f"--tolerance value for {key!r} is not a number")
    return overrides


def _family_params(name, params):
    """FamilyParams of a tableau family from q and the family's own
    parameters, all read as numbers."""
    q = _pop(params, "q")
    return FamilyParams(name, q, **{k: _pop(params, k, _NUMBER) for k in list(params)})


def _check_nodes(n):
    if n < 64 or n > 4096 or n & (n - 1):
        raise UsageError("--nodes must be a power of two between 64 and 4096")
    return n


# ---------------------------------------------------------------------------
# eval


_EVAL = {
    "phi": lambda upper, lower, q, z: eval_phi(SeriesSpec(upper, lower, q, z)),
    "psi": lambda upper, lower, q, z: eval_psi(SeriesSpec(upper, lower, q, z)),
    "eq": e_q,
    "Eq": E_q,
    "gammaq": gamma_q,
    "betaq": beta_q,
    "theta4": theta4,
    "besselq1": jackson_bessel_1,
    "besselq2": jackson_bessel_2,
    "besselhe": hahn_exton_bessel,
    "aw": lambda n, x, a, b, c, d, q: aw_poly(n, x, AWParams(a, b, c, d, q)),
}
# family:<name> is listed before aw, the last key
EVAL_TARGETS = ", ".join([*_EVAL][:-1] + ["family:<name>", "aw"])


def _eval_target(target, params):
    if target.startswith("family:"):
        n = _pop(params, "n")
        x = _pop(params, "x")
        form = params.pop("form", "primary")
        fam = _family_params(target.split(":", 1)[1], params)
        return family_eval(fam, n, x, form=form)
    if target not in _EVAL:
        raise UsageError(f"unknown eval target {target!r}; targets: {EVAL_TARGETS}")
    return _call(_EVAL[target], params)


def cmd_eval(args, out):
    params = _params(args)
    echo = dict(params)
    value = _eval_target(args.target, params)
    if args.format == "json":
        out.write(
            json.dumps(
                {
                    "target": args.target,
                    "params": echo,
                    "value": _jsonable(value),
                }
            )
            + "\n"
        )
    elif args.format == "csv":
        keys = sorted(echo)
        out.write(",".join(["target", *keys, "value"]) + "\n")
        out.write(
            ",".join([args.target, *(echo[k] for k in keys), _fmt(value)])
            + "\n"
        )
    else:
        echo_s = " ".join(f"{k}={v}" for k, v in echo.items())
        out.write(f"{args.target} {echo_s}\n{_fmt(value)}\n")
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args, out):
    overrides = _tolerance_overrides(args.tolerance)
    if args.id == "all":
        ids = list_identities()
    else:
        ids = [args.id]
    reports = [
        verify(i, samples=args.samples, seed=args.seed, tolerance=overrides.get(i))
        for i in ids
    ]
    if args.format == "json":
        _write_json([r.to_dict() for r in reports], out)
    else:
        header = ["id", "status", "max_rel_error", "tolerance", "samples", "seed"]
        rows = [
            [
                r.id,
                "PASS" if r.passed else "FAIL",
                r.max_rel_error,
                r.tolerance,
                r.samples,
                r.seed,
            ]
            for r in reports
        ]
        _emit_rows(header, rows, args.format, out)
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# ortho


def _gram_report(gram, closed_diag, out, fmt, notes=()):
    """Emit a Gram table with closed-form comparison and judge it.

    Off-diagonals are compared against the diagonal scale, diagonals
    against the closed forms where available.
    """
    gram = gram.tolist()  # Python numbers for the row loop and the output
    nmax = len(gram) - 1
    scale = max(max(abs(gram[n][n]) for n in range(nmax + 1)), 1e-300)
    breach = False
    rows = []
    for n in range(nmax + 1):
        for m in range(n, nmax + 1):
            entry = gram[n][m]
            if n != m:
                closed, rel = 0.0, abs(entry) / scale
                ok = rel <= OFFDIAG_TOL
            elif closed_diag and closed_diag[n] is not None:
                closed = closed_diag[n]
                rel = abs(entry - closed) / max(abs(closed), 1e-300)
                ok = rel <= DIAG_TOL
            else:
                closed, rel, ok = "", "", True
            breach = breach or not ok
            rows.append([n, m, entry, closed, rel, "ok" if ok else "BREACH"])
    _emit_rows(
        ["n", "m", "gram", "closed", "rel_error", "status"], rows, fmt, out
    )
    for note in notes:
        out.write(f"note: {note}\n")
    return 1 if breach else 0


def _ortho_aw(args, a, b, c, d, q):
    p = AWParams(a, b, c, d, q)
    gram = aw_gram_quadrature(p, args.nmax, _check_nodes(args.nodes))
    closed = aw_norms(args.nmax, p)
    if any(abs(e) > 1.0 for e in p.abcd):
        return gram, closed, ["continuous-part-only quadrature"]
    return gram, closed, []


def _ortho_big_qjacobi(args, a, b, c, d, q):
    p = BigQJacobiParams(a, b, c, d, q)
    closed = big_qjacobi_norms(args.nmax, p)
    return big_qjacobi_gram_matrix(args.nmax, p), closed, []


def _ortho_q_racah(args, alpha, beta, gamma, delta, q, N):
    if args.nmax > N:
        raise UsageError("--nmax exceeds N")
    return q_racah_gram_matrix(args.nmax, alpha, beta, gamma, delta, q, N), None, []


# the reports of the families outside the tableau: (gram, closed or None, notes)
_ORTHO = {"aw": _ortho_aw, "big_qjacobi": _ortho_big_qjacobi, "q_racah": _ortho_q_racah}


def cmd_ortho(args, out):
    params = _params(args)
    if args.nmax < 0:
        raise UsageError("--nmax must be nonnegative")
    if args.family in _ORTHO:
        gram, closed, notes = _call(_ORTHO[args.family], params, args)
    else:  # a tableau family with a printed measure
        fam = _family_params(args.family, params)
        # norms first: a norm's DomainError names n before the Gram divides by that 0
        closed, notes = family_norms(fam, args.nmax), []
        gram = family_gram_matrix(fam, args.nmax)
    return _gram_report(gram, closed, out, args.format, notes)


# ---------------------------------------------------------------------------
# table


# each grid row is one evaluation and one output line, held in memory
# until the table prints: a grid longer than this is a mistyped step
_MAX_GRID_ROWS = 100_000


def _parse_grid(spec):
    try:
        var, _, rng = spec.partition("=")
        start_s, stop_s, step_s = rng.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError:
        raise UsageError(
            f"malformed grid {spec!r} (expected var=start:stop:step)"
        )
    if not var:
        raise UsageError(f"malformed grid {spec!r} (empty variable)")
    if not all(map(math.isfinite, (start, stop, step))):
        raise UsageError(f"grid start, stop and step must be finite in {spec!r}")
    if step <= 0:
        raise UsageError(f"grid step must be positive in {spec!r}")
    if stop < start:
        raise UsageError(f"grid stop below start in {spec!r}")
    span = (stop - start) / step + 1e-9
    if span >= _MAX_GRID_ROWS:  # int(span) + 1 rows
        raise UsageError(f"grid {spec!r} has more than {_MAX_GRID_ROWS} rows")
    return var, [start + k * step for k in range(int(span) + 1)]


def cmd_table(args, out):
    base = _params(args)
    if not args.grid:
        raise UsageError("table requires at least one --grid var=start:stop:step")
    names, grids = zip(*map(_parse_grid, args.grid))
    rows = []
    for point in itertools.product(*grids):  # row-major: the last grid varies fastest
        params = {**base, **{name: repr(v) for name, v in zip(names, point)}}
        rows.append([*point, _eval_target(args.target, params)])
    _emit_rows([*names, "value"], rows, args.format, out)
    return 0


# ---------------------------------------------------------------------------
# limits


def cmd_limits(args, out):
    names = list_paths() if args.path == "all" else [args.path]
    code = 0
    payload = []
    for name in names:
        report = run_limit(name, tolerance=args.tolerance_value)
        if not report.passed:
            code = 1
        if args.format == "json":
            payload.append(
                {
                    "name": report.name,
                    "parameters": _jsonable(list(report.parameters)),
                    "errors": _jsonable(list(report.errors)),
                    "tolerance": report.tolerance,
                    "final_error": report.final_error,
                    "finally_decreasing": report.finally_decreasing,
                    "passed": report.passed,
                }
            )
        else:
            rows = [
                [p, e] for p, e in zip(report.parameters, report.errors)
            ]
            out.write(
                f"{report.name}: {'PASS' if report.passed else 'FAIL'} "
                f"(final {_fmt(report.final_error)}, "
                f"tolerance {_fmt(report.tolerance)})\n"
            )
            _emit_rows(["parameter", "error"], rows, args.format, out)
    if args.format == "json":
        _write_json(payload, out)
    return code


# ---------------------------------------------------------------------------
# argument parser


@functools.cache
def _build_parser():
    """The parser, built on the first main call and shared by every later
    call in the process; parse_args keeps each call's state in a fresh
    namespace.  Its command_parsers maps each command to its subparser."""
    parser = argparse.ArgumentParser(
        prog="qspecial",
        description="q-special functions: evaluation and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.command_parsers = sub.choices

    def common(p, q=True):
        if q:
            p.add_argument("--q", type=float, default=None, help="default base q")
        p.add_argument(
            "--format", choices=("json", "csv", "text"), default="text"
        )
        p.add_argument("--out", default=None, help="write output to a file")

    p_eval = sub.add_parser("eval", help="evaluate a target at a point")
    p_eval.add_argument("target")
    p_eval.add_argument("params", nargs="*", metavar="key=value")
    common(p_eval)

    p_verify = sub.add_parser("verify", help="verify identities")
    p_verify.add_argument("id", help="identity id or 'all'")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--samples", type=int, default=25)
    p_verify.add_argument(
        "--tolerance",
        action="append",
        metavar="ID=VAL",
        help="per-identity tolerance override",
    )
    common(p_verify, q=False)

    p_ortho = sub.add_parser("ortho", help="orthogonality Gram report")
    p_ortho.add_argument("family")
    p_ortho.add_argument("params", nargs="*", metavar="key=value")
    p_ortho.add_argument("--nmax", type=int, default=4)
    p_ortho.add_argument("--nodes", type=int, default=512)
    common(p_ortho)

    p_table = sub.add_parser("table", help="tabulate a target over a grid")
    p_table.add_argument("target")
    p_table.add_argument("params", nargs="*", metavar="key=value")
    p_table.add_argument(
        "--grid",
        action="append",
        metavar="var=start:stop:step",
        help="grid variable (repeatable; row-major order)",
    )
    common(p_table)

    p_limits = sub.add_parser("limits", help="classical limit diagnostics")
    p_limits.add_argument("path", help="limit path name or 'all'")
    p_limits.add_argument(
        "--tolerance-value",
        type=float,
        default=1e-3,
        help="final relative error bound",
    )
    common(p_limits, q=False)
    return parser


_COMMANDS = {
    "eval": cmd_eval,
    "verify": cmd_verify,
    "ortho": cmd_ortho,
    "table": cmd_table,
    "limits": cmd_limits,
}


def main(argv=None):
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    try:
        if command in parser.command_parsers:
            # the subparser alone: parse_args would pass it the same
            # arguments, and report what it leaves over through the top parser
            args, extras = parser.command_parsers[command].parse_known_args(argv[1:])
            if extras:
                parser.error("unrecognized arguments: " + " ".join(extras))
        else:  # no command: help, or the top parser's usage error
            args = parser.parse_args(argv)
            command = args.command
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return _run(command, args)


def _run(command, args):
    """Run a parsed command; its exit code."""
    try:
        if args.out:
            with open(args.out, "w", newline="\n") as handle:
                code = _COMMANDS[command](args, handle)
        else:
            code = _COMMANDS[command](args, sys.stdout)
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the flush at
        # exit cannot raise again (the recipe of the signal module docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QSpecialError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
