"""Classical-limit harness.

Independent evaluators for the classical (q = 1) hypergeometric
orthogonal polynomial families, the gamma function and Bessel J, plus a
catalog of named limit paths.  Each path is one record: the steps of a
degeneration parameter toward its limit, a few probe points, the
approximant and the limit value.  One driver, run_limit, forms each
probe's limit value once and records at each step the worst relative
error over the probes.  A path passes when the final error is below
tolerance and the last three steps are monotonically decreasing.

The terminating q = 1 sums (hyp_terminating) stop at their first term
that is exactly 0, since every later term is 0 times finite factors.
"""

import cmath
import math
from itertools import accumulate, count
from typing import NamedTuple

from qspecial.errors import DomainError, UnknownPath
from qspecial.qcore import qbinomial, qpoch, shifted_factorial, tail_sum
from qspecial.qfunctions import E_q, gamma_q
from qspecial.qorthopoly import (
    BigQJacobiParams,
    FamilyParams,
    big_qjacobi_recurrence_table,
    family_eval,
    little_qjacobi,
)
from qspecial.askey_wilson import AWParams, aw_poly_r
from qspecial.qseries import SeriesSpec, eval_phi
from qspecial.recurrence import eval_all


# A parameter meant as the integer -n is exact, or the sum of a few doubles
# (beta + delta + 1 in the Racah check), each addition rounding by half an
# ulp of its size.  A wider window cuts short sums that do not terminate:
# hyp_terminating([-5, -2.0000000005], [1.5], 30.0) would stop at k = 2.
_INTEGER_ULPS = 4


def _is_nonpositive_int(a):
    """The integer r <= 0 within _INTEGER_ULPS ulps of max(|r|, 1) of a,
    in its real and its imaginary part, or None."""
    a = complex(a)
    r = round(a.real)
    width = _INTEGER_ULPS * math.ulp(max(-r, 1))
    if r <= 0 and abs(a.real - r) <= width and abs(a.imag) <= width:
        return int(r)
    return None


def hyp_terminating(uppers, lowers, z):
    """Terminating hypergeometric sum sum_k prod(u)_k / prod(l)_k z^k / k!.

    One upper parameter must be a nonpositive integer -n; the sum stops
    at k = n, so a lower parameter -N with N >= n never produces a zero
    denominator (the usual convention for doubly terminating series).  It
    stops earlier at a term that is exactly 0 (a zero factor, or terms
    that underflowed), with the bits of the full sum.
    """
    kmax = None
    for u in uppers:
        r = _is_nonpositive_int(u)
        if r is not None:
            kmax = -r if kmax is None else min(kmax, -r)
    if kmax is None:
        raise DomainError("series does not terminate")
    # once a term is exactly 0, every later term is 0 times finite factors
    # and adds nothing, unless a lower parameter l + k vanishes on the way,
    # where 0/0 raises: then the loop runs on to raise as before
    stop_at_zero = not any(_lower_pole(l, kmax) for l in lowers)
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    for k in range(kmax):
        for u in uppers:
            term *= u + k
        for l in lowers:
            term /= l + k
        term *= z / (k + 1)
        total += term
        if term == 0 and stop_at_zero:
            break
    return total


def _lower_pole(l, kmax):
    """True when l + k is exactly 0 for an integer 0 <= k < kmax."""
    l = complex(l)
    return l.imag == 0 and l.real.is_integer() and 0 <= -l.real < kmax


def hermite(n, x):
    """Physicists' Hermite polynomial via its explicit sum."""
    total = 0.0
    for k in range(n // 2 + 1):
        total += (
            (-1.0) ** k
            * math.factorial(n)
            / (math.factorial(k) * math.factorial(n - 2 * k))
            * (2.0 * x) ** (n - 2 * k)
        )
    return total


def classical_eval(family, n, x, **par):
    """Evaluate a classical hypergeometric orthogonal polynomial.

    Families: jacobi(alpha,beta), laguerre(alpha), hermite, hahn(alpha,
    beta,N), dual_hahn(gamma,delta,N), krawtchouk(p,N), meixner(beta,c),
    charlier(a), racah(alpha,beta,gamma,delta), wilson(a,b,c,d),
    continuous_dual_hahn(a,b,c), continuous_hahn(a,b),
    meixner_pollaczek(a,phi).  Discrete families take x as the lattice
    variable; Wilson-type families take the real point x (the argument
    of p_n(x^2) resp. p_n(x)).
    """
    if n < 0:
        raise DomainError("degree must be nonnegative")
    if family == "jacobi":
        al, be = par["alpha"], par["beta"]
        # three term recurrence; the terminating sum at (1-x)/2 cancels
        # badly near the left endpoint and past degree 10
        if n == 0:
            return 1.0
        pm, pc = 1.0, 0.5 * (al - be) + 0.5 * (al + be + 2.0) * x
        for k in range(2, n + 1):
            s = 2.0 * k + al + be
            den = 2.0 * k * (k + al + be) * (s - 2.0)
            b1 = (s - 1.0) * (s * (s - 2.0) * x + al * al - be * be)
            c1 = 2.0 * (k + al - 1.0) * (k + be - 1.0) * s
            pm, pc = pc, (b1 * pc - c1 * pm) / den
        return pc
    if family == "laguerre":
        al = par["alpha"]
        return (
            shifted_factorial(al + 1.0, n)
            / math.factorial(n)
            * hyp_terminating([-n], [al + 1.0], x)
        )
    if family == "hermite":
        return hermite(n, x)
    if family == "hahn":
        al, be, big_n = par["alpha"], par["beta"], par["N"]
        if n > big_n:
            raise DomainError("degree exceeds N")
        return hyp_terminating(
            [-n, n + al + be + 1.0, -x], [al + 1.0, -float(big_n)], 1.0
        )
    if family == "dual_hahn":
        ga, de, big_n = par["gamma"], par["delta"], par["N"]
        if n > big_n:
            raise DomainError("degree exceeds N")
        return hyp_terminating(
            [-n, -x, x + ga + de + 1.0], [ga + 1.0, -float(big_n)], 1.0
        )
    if family == "krawtchouk":
        p, big_n = par["p"], par["N"]
        if n > big_n:
            raise DomainError("degree exceeds N")
        return hyp_terminating([-n, -x], [-float(big_n)], 1.0 / p)
    if family == "meixner":
        be, c = par["beta"], par["c"]
        return hyp_terminating([-n, -x], [be], 1.0 - 1.0 / c)
    if family == "charlier":
        return hyp_terminating([-n, -x], [], -1.0 / par["a"])
    if family == "racah":
        al, be = par["alpha"], par["beta"]
        ga, de = par["gamma"], par["delta"]
        lowers = [al + 1.0, be + de + 1.0, ga + 1.0]
        if not any(_is_nonpositive_int(l) is not None for l in lowers):
            raise DomainError(
                "one of alpha+1, beta+delta+1, gamma+1 must be a nonpositive integer"
            )
        return hyp_terminating(
            [-n, n + al + be + 1.0, -x, x + ga + de + 1.0], lowers, 1.0
        )
    if family == "wilson":
        a, b, c, d = par["a"], par["b"], par["c"], par["d"]
        pref = (
            shifted_factorial(a + b, n)
            * shifted_factorial(a + c, n)
            * shifted_factorial(a + d, n)
        )
        return pref * hyp_terminating(
            [-n, n + a + b + c + d - 1.0, a + 1j * x, a - 1j * x],
            [a + b, a + c, a + d],
            1.0,
        )
    if family == "continuous_dual_hahn":
        a, b, c = par["a"], par["b"], par["c"]
        pref = shifted_factorial(a + b, n) * shifted_factorial(a + c, n)
        return pref * hyp_terminating(
            [-n, a + 1j * x, a - 1j * x], [a + b, a + c], 1.0
        )
    if family == "continuous_hahn":
        a, b = complex(par["a"]), complex(par["b"])
        ac, bc = a.conjugate(), b.conjugate()
        pref = (
            1j**n
            * shifted_factorial(a + ac, n)
            * shifted_factorial(a + bc, n)
            / math.factorial(n)
        )
        return pref * hyp_terminating(
            [-n, n + a + ac + b + bc - 1.0, a + 1j * x], [a + ac, a + bc], 1.0
        )
    if family == "meixner_pollaczek":
        a, phi = par["a"], par["phi"]
        pref = shifted_factorial(2.0 * a, n) / math.factorial(n) * cmath.exp(1j * n * phi)
        return pref * hyp_terminating(
            [-n, a + 1j * x], [2.0 * a], 1.0 - cmath.exp(-2j * phi)
        )
    raise DomainError(f"unknown classical family {family!r}")


_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def classical_gamma(z):
    """Gamma function via a fixed published rational-coefficient
    approximation (Lanczos, g = 7, 9 terms) with the reflection formula
    for Re z < 1/2."""
    z = complex(z)
    if z.real < 0.5:
        s = cmath.sin(cmath.pi * z)
        if s == 0:
            raise DomainError(f"gamma pole at z = {z}")
        return cmath.pi / (s * classical_gamma(1.0 - z))
    z -= 1.0
    acc = _LANCZOS_COEF[0]
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * acc


def classical_bessel_j(nu, x):
    """Bessel J_nu by the ascending series, summed by qcore.tail_sum."""
    x = complex(x)
    w = -x * x / 4.0
    step = lambda t, k: t * w / (k * (nu + k))
    terms = accumulate(count(1), step, initial=1.0 + 0.0j)
    total = tail_sum(terms, "Bessel series tail not reached")[0]
    return (x / 2.0) ** nu / classical_gamma(nu + 1.0) * total


class LimitReport:
    """Error trace of one limit path."""

    def __init__(self, name, tolerance=1e-3):
        self.name, self.tolerance = name, tolerance
        self.parameters, self.errors = [], []

    def __repr__(self):
        return (
            f"LimitReport(name={self.name!r}, parameters={self.parameters!r}, "
            f"errors={self.errors!r}, tolerance={self.tolerance!r})"
        )

    @property
    def final_error(self):
        return self.errors[-1] if self.errors else math.inf

    @property
    def finally_decreasing(self):
        e = self.errors
        return len(e) >= 3 and e[-3] >= e[-2] >= e[-1]

    @property
    def passed(self):
        return self.final_error <= self.tolerance and self.finally_decreasing


def _rel(approx, target):
    """Relative error; a non-finite error counts as inf (a failure)."""
    err = abs(approx - target) / max(1.0, abs(target))
    return err if math.isfinite(err) else math.inf


def _march(name, tolerance, values, step_error):
    rep = LimitReport(name, tolerance=tolerance)
    for v in values:
        rep.parameters.append(v)
        rep.errors.append(step_error(v))
    return rep


def confluence_limit_check(spec, direction, magnitudes):
    """Check the confluence limit sending upper[direction] -> oo with z/a scaling.

    Evaluates r_phi_s(..., a, ...; q, z/a) for a running through the given
    magnitudes and compares against the (r-1)_phi_s value at argument z.
    Returns a LimitReport named "confluence".
    """
    if spec.r < 1:
        raise DomainError("need at least one upper parameter")
    kept = list(spec.upper)
    kept.pop(direction)
    target = eval_phi(SeriesSpec(kept, spec.lower, spec.q, spec.z))

    def err(mag):
        upper = list(spec.upper)
        upper[direction] = mag
        value = eval_phi(SeriesSpec(upper, spec.lower, spec.q, spec.z / mag))
        return abs(value - target) / max(abs(target), 1e-300)

    return _march("confluence", 1e-6, magnitudes, err)


class _LimitPath(NamedTuple):
    """One limit path: the steps of its degeneration parameter, the probe
    points, the approximant (step, *probe) and the limit value
    (*probe)."""

    steps: list
    probes: list
    approximant: object
    target: object


_PATHS = {}


def _path(name, steps, probes, approximant, target):
    if name in _PATHS:
        raise DomainError(f"duplicate limit path {name!r}")
    _PATHS[name] = _LimitPath(steps, probes, approximant, target)


def _q_steps(jmax=14):
    """q = 1 - 2^{-j} for j = 2..jmax-1."""
    return [1.0 - 2.0**-j for j in range(2, jmax)]


def _jacobi(alpha, beta, n, t):
    """2F1(-n, n + alpha + beta + 1; alpha + 1; t): the Jacobi polynomial
    in the variable t = (1 - x)/2, normalized to 1 at t = 0."""
    return hyp_terminating([-n, n + alpha + beta + 1.0], [alpha + 1.0], t)


def _laguerre(alpha, n, x):
    """1F1(-n; alpha + 1; x): the Laguerre polynomial normalized to 1 at 0."""
    return hyp_terminating([-n], [alpha + 1.0], x)


def _hermite_from_charlier(a, n, x):
    s = math.sqrt(2.0 * a)
    return (-s) ** n * classical_eval("charlier", n, s * x + a, a=a)


def _aw_to_big_qjacobi(lam, n, x):
    q, a, b, c, d = 0.45, 0.6, 0.4, 1.3, 0.8
    rt = math.sqrt(q * d / c)
    rti = math.sqrt(q * c / d)
    aw = AWParams(lam * a * rt, rti / lam, -rt / lam, -lam * b * rti, q)
    return aw_poly_r(n, math.sqrt(q) * x / (2.0 * lam * math.sqrt(c * d)), aw)


def _big_qjacobi_normalized(n, x):
    q, a, b, c, d = 0.45, 0.6, 0.4, 1.3, 0.8
    p = BigQJacobiParams(a, b, c, d, q)
    # the monic values at x and at c/(qa), from one table
    top, norm = eval_all(big_qjacobi_recurrence_table(n, p), [x, c / (q * a)])[n]
    return complex(top) / complex(norm)


def _aw_to_little_qjacobi(lam, n, x):
    q, a, b = 0.45, 0.6, 0.4
    sq = math.sqrt(q)
    aw = AWParams(sq * lam * lam * a, sq / (lam * lam), -sq, -sq * b, q)
    return aw_poly_r(n, sq * x / (2.0 * lam * lam), aw)


def _little_qjacobi_scaled(n, x):
    q, a, b = 0.45, 0.6, 0.4
    return (
        qpoch(q * b, q, n)
        / qpoch(q ** float(-n) / a, q, n)
        * little_qjacobi(n, x, b, a, q)
    )


def _little_qjacobi_top_degrees(big_n, n, x):
    q, a, b = 0.45, 0.55, 0.3
    return little_qjacobi(big_n - n, q ** float(big_n) * x, a, b, q)


def _hahn_exton_phi(n, x):
    q, a = 0.45, 0.55
    return eval_phi(SeriesSpec([0], [a * q], q, q ** float(n + 1) * x))


_path(
    "laguerre_from_jacobi",
    [2.0**j for j in range(3, 16)],
    [(1, 0.5), (3, 0.5), (4, 2.0)],
    lambda beta, n, x: classical_eval(
        "jacobi", n, 1.0 - 2.0 * x / beta, alpha=0.7, beta=beta
    ),
    lambda n, x: classical_eval("laguerre", n, x, alpha=0.7),
)
_path(
    "hermite_from_jacobi",
    [4.0**j for j in range(2, 10)],
    [(1, 0.6), (3, 0.6), (4, -1.1)],
    lambda alpha, n, x: 2.0**n
    * math.factorial(n)
    * alpha ** (-n / 2.0)
    * classical_eval("jacobi", n, x / math.sqrt(alpha), alpha=alpha, beta=alpha),
    hermite,
)
_path(
    "hermite_from_laguerre",
    [4.0**j for j in range(2, 14)],
    [(1, 0.6), (2, -0.4), (3, 0.6)],
    lambda alpha, n, x: (-1.0) ** n
    * 2.0 ** (n / 2.0)
    * math.factorial(n)
    * alpha ** (-n / 2.0)
    * classical_eval(
        "laguerre", n, math.sqrt(2.0 * alpha) * x + alpha, alpha=alpha
    ),
    hermite,
)
_path(
    "hermite_from_charlier",
    [4.0**j for j in range(2, 12)],
    [(1, 0.6), (2, -0.4), (3, 0.6)],
    _hermite_from_charlier,
    hermite,
)
_path(
    "jacobi_from_hahn",
    [2**j for j in range(4, 16)],
    [(1, 0.3), (3, 0.3), (4, 0.8)],
    lambda big_n, n, t: classical_eval(
        "hahn", n, big_n * t, alpha=0.4, beta=1.1, N=int(big_n)
    ),
    lambda n, t: _jacobi(0.4, 1.1, n, t),
)
# the discrete q-families at the lattice points q^{-x} with N = 8
_path(
    "hahn_from_qhahn",
    _q_steps(),
    [(1, 2), (3, 5), (4, 7)],
    lambda q, n, x: family_eval(
        FamilyParams("q_hahn", q, a=q**0.4, b=q**1.1, N=8), n, q ** float(-x)
    ),
    lambda n, x: classical_eval("hahn", n, x, alpha=0.4, beta=1.1, N=8),
)
_path(
    "krawtchouk_from_qkrawtchouk",
    _q_steps(),
    [(1, 2), (3, 5), (4, 7)],
    lambda q, n, x: family_eval(
        FamilyParams("q_krawtchouk", q, b=1.5, N=8), n, q ** float(-x)
    ),
    lambda n, x: classical_eval("krawtchouk", n, x, p=1.5 / (1.5 + 1.0), N=8),
)
_path(
    "krawtchouk_from_affine_qkrawtchouk",
    _q_steps(),
    [(1, 2), (3, 5), (4, 7)],
    lambda q, n, x: family_eval(
        FamilyParams("affine_q_krawtchouk", q, a=0.35, N=8), n, q ** float(-x)
    ),
    lambda n, x: classical_eval("krawtchouk", n, x, p=1.0 - 0.35, N=8),
)
_path(
    "krawtchouk_from_affine_qinv_krawtchouk",
    _q_steps(17),
    [(1, 2), (3, 5), (4, 7)],
    lambda q, n, x: family_eval(
        FamilyParams("affine_qinv_krawtchouk", q, b=2.5, N=8),
        n,
        q ** float(-x),
    ),
    lambda n, x: classical_eval("krawtchouk", n, x, p=1.0 / 2.5, N=8),
)
_path(
    "jacobi_from_little_qjacobi",
    _q_steps(),
    [(1, 0.3), (3, 0.3), (4, 0.8)],
    lambda q, n, x: little_qjacobi(n, x, q**0.4, q**1.1, q),
    lambda n, x: _jacobi(0.4, 1.1, n, x),
)
_path(
    "laguerre_from_little_qjacobi",
    _q_steps(),
    [(1, 0.5), (3, 0.5), (4, 2.0)],
    lambda q, n, x: little_qjacobi(n, (1.0 - q) * x / (1.0 - 0.5), q**0.7, 0.5, q),
    lambda n, x: _laguerre(0.7, n, x),
)
_path(
    "laguerre_from_big_qlaguerre",
    _q_steps(),
    [(1, 0.3), (3, 0.3), (4, 1.2)],
    lambda q, n, x: family_eval(
        FamilyParams("big_q_laguerre", q, a=q**0.7, c=2.0, d=1.0 / (1.0 - q)),
        n,
        x,
    ),
    lambda n, x: _laguerre(0.7, n, 2.0 - x),
)
_path(
    "aw_to_big_qjacobi",
    [2.0**-j for j in range(1, 9)],
    [(1, 0.5), (2, -0.3), (3, 0.5)],
    _aw_to_big_qjacobi,
    _big_qjacobi_normalized,
)
_path(
    "aw_to_little_qjacobi",
    [2.0**-j for j in range(1, 9)],
    [(1, 0.5), (2, 0.15), (3, 0.5)],
    _aw_to_little_qjacobi,
    _little_qjacobi_scaled,
)
_path(
    "hahn_exton_from_little_qjacobi",
    list(range(4, 16)),
    [(0, 0.7), (1, 0.7), (2, 1.4)],
    _little_qjacobi_top_degrees,
    _hahn_exton_phi,
)
_path(
    "bessel_from_jacobi",
    [2**j for j in range(2, 13)],
    [(0.8,), (2.1,)],
    lambda m, x: _jacobi(0.7, 0.2, m, x * x / (4.0 * m * m)),
    lambda x: classical_gamma(0.7 + 1.0)
    * (x / 2.0) ** (-0.7)
    * classical_bessel_j(0.7, x),
)
_path(
    "exp_from_Eq",
    _q_steps(),
    [(0.8,), (-1.3,), (2.5,)],
    lambda q, z: E_q((1.0 - q) * z, q),
    lambda z: math.exp(z),
)
_path(
    "gamma_from_gamma_q",
    _q_steps(),
    [(0.5,), (1.7,), (3.2,)],
    lambda q, z: gamma_q(z, q),
    lambda z: classical_gamma(z),
)
_path(
    "qbinomial_to_binomial",
    _q_steps(16),
    [(8, 3), (10, 5), (12, 2)],
    lambda q, n, k: qbinomial(n, k, q),
    lambda n, k: math.comb(n, k),
)


def list_paths():
    """Sorted names of the available limit paths."""
    return sorted(_PATHS)


def run_limit(name, tolerance=1e-3):
    """Run one named limit path and return its LimitReport; the error at a
    step is the worst relative error of the approximant over the probes."""
    if name not in _PATHS:
        raise UnknownPath(f"unknown limit path {name!r}")
    path = _PATHS[name]
    # the limit value does not depend on the step: once per probe
    targets = [path.target(*p) for p in path.probes]

    def worst(step):
        return max(
            _rel(path.approximant(step, *p), t)
            for p, t in zip(path.probes, targets)
        )

    return _march(name, tolerance, path.steps, worst)
