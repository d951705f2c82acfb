"""gram_reports: `qspecial ortho` reports produced in-process through the CLI.

A round runs the README's big q-Jacobi report, the Askey-Wilson report
that exposes F2, and PER_FAMILY seeded draws for each family, with q
stratified so that the cost of a round does not hang on the seed.  Each report reuses one parameter set across its lattice or
quadrature nodes.  Every round repeats the same reports.
"""

import contextlib
import io
import json
import math
import random

from mpmath import mp

import mpref

TOL = 1e-9
MODULES = ("qspecial.cli",)

README_BIG_QJACOBI = ("big_qjacobi", dict(a=0.95, b=0.3, c=0.855, d=1.0, q=0.9), 4, None)
# F2: the degree-8 series of aw_poly has lost ~6 digits; the report breaches
F2_AW = ("aw", dict(a=0.6, b=0.4, c=-0.3, d=0.2, q=0.55), 8, 512)
PER_FAMILY = 14


def _s(rng, lo, hi):
    return rng.uniform(lo, hi) * rng.choice((-1.0, 1.0))


def _draw(family, rng, i):
    """The i-th draw of a family.  q is stratified: the i-th of PER_FAMILY
    draws falls in the i-th equal slice of the family's q range, so that the
    cost of a round hardly depends on the seed."""
    u = rng.uniform

    def q_in(lo, hi):
        return lo + (i + u(0.0, 1.0)) * (hi - lo) / PER_FAMILY

    if family == "big_qjacobi":
        p = dict(a=u(0.1, 0.9), b=u(0.1, 0.9), c=u(0.5, 1.5), d=u(0.5, 1.5), q=q_in(0.3, 0.7))
        return (family, p, 2, None)
    if family == "little_q_jacobi":
        return (family, dict(a=u(0.1, 0.9), b=u(-0.5, 0.9), q=q_in(0.3, 0.75)), 3, None)
    if family == "aw":
        p = dict(a=_s(rng, 0.1, 0.8), b=_s(rng, 0.1, 0.8), c=_s(rng, 0.1, 0.8),
                 d=_s(rng, 0.1, 0.8), q=q_in(0.3, 0.8))
        return (family, p, 3 + i % 2, (128, 256)[i % 2])
    if family == "q_hahn":
        p = dict(a=u(0.1, 0.9), b=u(0.1, 0.9), N=5 + i % 6, q=q_in(0.3, 0.7))
        return (family, p, 4, None)
    if family == "q_krawtchouk":
        return (family, dict(b=u(0.2, 2.0), N=5 + i % 6, q=q_in(0.3, 0.7)), 4, None)
    if family == "wall":
        return (family, dict(a=u(0.1, 0.9), q=q_in(0.3, 0.8)), 3, None)
    if family == "moak":
        return (family, dict(alpha=u(0.2, 2.0), q=q_in(0.3, 0.7)), 3, None)
    return (family, dict(a=u(-1.5, -0.2), q=q_in(0.3, 0.7)), 3, None)


FAMILIES = ("big_qjacobi", "little_q_jacobi", "aw", "q_hahn", "q_krawtchouk", "wall", "moak",
            "al_salam_carlitz_u")


def make_ops(qs, seed):
    rng = random.Random(f"gram_reports|{seed}")
    specs = [(README_BIG_QJACOBI, None), (F2_AW, "F2")]
    specs += [(_draw(f, rng, i), None) for f in FAMILIES for i in range(PER_FAMILY)]
    rng.shuffle(specs)
    return [("ortho", spec, fault) for spec, fault in specs]


def argv(spec):
    family, params, nmax, nodes = spec
    out = ["ortho", family, *(f"{k}={v!r}" for k, v in params.items()), "--nmax", str(nmax)]
    if nodes is not None:
        out += ["--nodes", str(nodes)]
    return out + ["--format", "json"]


def call(qs, op):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qs.cli.main(argv(op[1]))
    return code, out.getvalue()


def parse_gram(text, nmax):
    """The Gram matrix from the report's JSON rows (upper triangle)."""
    rows, _ = json.JSONDecoder().raw_decode(text)
    gram = {}
    for row in rows:
        v = row["gram"]
        gram[(row["n"], row["m"])] = complex(*v) if isinstance(v, list) else complex(v)
    want = {(n, m) for n in range(nmax + 1) for m in range(n, nmax + 1)}
    if set(gram) != want:
        raise ValueError("report rows do not cover the Gram matrix")
    return gram


def closed_norms(family, p, nmax):
    """Closed-form squared norms from mpref, or None for a family whose
    report is judged by orthogonality alone."""
    with mp.workdps(40):
        if family == "big_qjacobi":
            f = lambda n: mpref.big_qjacobi_norm(n, p["a"], p["b"], p["c"], p["d"], p["q"])
        elif family == "little_q_jacobi":
            f = lambda n: mpref.little_qjacobi_norm(n, p["a"], p["b"], p["q"])
        elif family == "wall":
            f = lambda n: mpref.little_qjacobi_norm(n, p["a"], 0.0, p["q"])
        elif family == "aw":
            f = lambda n: mpref.aw_norm(n, p["a"], p["b"], p["c"], p["d"], p["q"])
        else:
            return None
        return [complex(f(n)) for n in range(nmax + 1)]


class Checker:
    """Diagonals against closed-form norms where the tutorial gives one,
    off-diagonals against zero relative to sqrt(G_nn G_mm); the report
    must exit 0.  The norms of a report are computed once per run."""

    def __init__(self):
        self.norms = {}

    def check(self, index, op, out):
        family, params, nmax, _ = op[1]
        code, text = out
        if code != 0:
            return False
        try:
            gram = parse_gram(text, nmax)
        except (ValueError, KeyError, TypeError):
            return False
        if index not in self.norms:
            self.norms[index] = closed_norms(family, params, nmax)
        return judge(gram, self.norms[index], nmax)


def judge(gram, norms, nmax):
    diag = [gram[(n, n)] for n in range(nmax + 1)]
    if not all(math.isfinite(abs(v)) and v != 0 for v in diag):
        return False
    if norms is not None:
        if any(abs(d - h) > TOL * abs(h) for d, h in zip(diag, norms)):
            return False
        diag = norms
    return all(
        abs(gram[(n, m)]) <= TOL * math.sqrt(abs(diag[n]) * abs(diag[m]))
        for n in range(nmax + 1)
        for m in range(n + 1, nmax + 1)
    )
