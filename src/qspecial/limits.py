"""Classical-limit harness.

Independent evaluators for the classical (q = 1) hypergeometric
orthogonal polynomial families, the gamma function and Bessel J, plus a
catalog of named limit paths that march a degeneration parameter toward
its target and record the approximation error at each step.  A path
passes when the final error is below tolerance and the last three steps
are monotonically decreasing.
"""

import cmath
import math
from dataclasses import dataclass, field

from qspecial.errors import DomainError, UnknownPath
from qspecial.qcore import DEFAULT_POLICY, qbinomial, shifted_factorial
from qspecial.qfunctions import E_q, gamma_q
from qspecial.qorthopoly import (
    BigQJacobiParams,
    FamilyParams,
    big_qjacobi_by_recurrence,
    family_eval,
    little_qjacobi,
)
from qspecial.askey_wilson import AWParams, aw_poly_r
from qspecial.qseries import SeriesSpec, eval_phi


def _is_nonpositive_int(a):
    if isinstance(a, complex):
        if abs(a.imag) > 1e-9:
            return None
        a = a.real
    r = round(a)
    if r <= 0 and abs(a - r) < 1e-9:
        return int(r)
    return None


def hyp_terminating(uppers, lowers, z):
    """Terminating hypergeometric sum sum_k prod(u)_k / prod(l)_k z^k / k!.

    One upper parameter must be a nonpositive integer -n; the sum stops
    at k = n, so a lower parameter -N with N >= n never produces a zero
    denominator (the usual convention for doubly terminating series).
    """
    kmax = None
    for u in uppers:
        r = _is_nonpositive_int(u)
        if r is not None:
            kmax = -r if kmax is None else min(kmax, -r)
    if kmax is None:
        raise DomainError("series does not terminate")
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    for k in range(kmax):
        for u in uppers:
            term *= u + k
        for l in lowers:
            term /= l + k
        term *= z / (k + 1)
        total += term
    return total


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
    """Bessel J_nu by the ascending series with a term recurrence."""
    x = complex(x)
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    w = -x * x / 4.0
    for k in range(1, 400):
        term *= w / (k * (nu + k))
        total += term
        if abs(term) < 1e-18 * max(1.0, abs(total)):
            break
    return (x / 2.0) ** nu / classical_gamma(nu + 1.0) * total


@dataclass
class LimitReport:
    """Error trace of one limit path."""

    name: str
    parameters: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    tolerance: float = 1e-3

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


def confluence_limit_check(spec, direction, magnitudes, pol=DEFAULT_POLICY):
    """Check the confluence limit sending upper[direction] -> oo with z/a scaling.

    Evaluates r_phi_s(..., a, ...; q, z/a) for a running through the given
    magnitudes and compares against the (r-1)_phi_s value at argument z.
    Returns a LimitReport named "confluence".
    """
    if spec.r < 1:
        raise DomainError("need at least one upper parameter")
    kept = list(spec.upper)
    kept.pop(direction)
    target = eval_phi(SeriesSpec(kept, spec.lower, spec.q, spec.z), pol)

    def err(mag):
        upper = list(spec.upper)
        upper[direction] = mag
        value = eval_phi(SeriesSpec(upper, spec.lower, spec.q, spec.z / mag), pol)
        return abs(value - target) / max(abs(target), 1e-300)

    return _march("confluence", 1e-6, magnitudes, err)


def _path_laguerre_from_jacobi(tol, pol):
    probes = [(1, 0.5), (3, 0.5), (4, 2.0)]
    alpha = 0.7

    def err(beta):
        worst = 0.0
        for n, x in probes:
            approx = classical_eval(
                "jacobi", n, 1.0 - 2.0 * x / beta, alpha=alpha, beta=beta
            )
            target = classical_eval("laguerre", n, x, alpha=alpha)
            worst = max(worst, _rel(approx, target))
        return worst

    return _march(
        "laguerre_from_jacobi", tol, [2.0**j for j in range(3, 16)], err
    )


def _path_hermite_from_jacobi(tol, pol):
    probes = [(1, 0.6), (3, 0.6), (4, -1.1)]

    def err(alpha):
        worst = 0.0
        for n, x in probes:
            approx = (
                2.0**n
                * math.factorial(n)
                * alpha ** (-n / 2.0)
                * classical_eval(
                    "jacobi", n, x / math.sqrt(alpha), alpha=alpha, beta=alpha
                )
            )
            worst = max(worst, _rel(approx, hermite(n, x)))
        return worst

    return _march(
        "hermite_from_jacobi", tol, [4.0**j for j in range(2, 10)], err
    )


def _path_hermite_from_laguerre(tol, pol):
    probes = [(1, 0.6), (2, -0.4), (3, 0.6)]

    def err(alpha):
        worst = 0.0
        for n, x in probes:
            approx = (
                (-1.0) ** n
                * 2.0 ** (n / 2.0)
                * math.factorial(n)
                * alpha ** (-n / 2.0)
                * classical_eval(
                    "laguerre", n, math.sqrt(2.0 * alpha) * x + alpha, alpha=alpha
                )
            )
            worst = max(worst, _rel(approx, hermite(n, x)))
        return worst

    return _march(
        "hermite_from_laguerre", tol, [4.0**j for j in range(2, 14)], err
    )


def _path_hermite_from_charlier(tol, pol):
    probes = [(1, 0.6), (2, -0.4), (3, 0.6)]

    def err(a):
        worst = 0.0
        for n, x in probes:
            s = math.sqrt(2.0 * a)
            approx = (-s) ** n * classical_eval("charlier", n, s * x + a, a=a)
            worst = max(worst, _rel(approx, hermite(n, x)))
        return worst

    return _march(
        "hermite_from_charlier", tol, [4.0**j for j in range(2, 12)], err
    )


def _path_jacobi_from_hahn(tol, pol):
    alpha, beta = 0.4, 1.1
    probes = [(1, 0.3), (3, 0.3), (4, 0.8)]

    def err(big_n):
        worst = 0.0
        for n, t in probes:
            approx = classical_eval(
                "hahn", n, big_n * t, alpha=alpha, beta=beta, N=int(big_n)
            )
            target = hyp_terminating(
                [-n, n + alpha + beta + 1.0], [alpha + 1.0], t
            )
            worst = max(worst, _rel(approx, target))
        return worst

    return _march(
        "jacobi_from_hahn", tol, [2**j for j in range(4, 16)], err
    )


def _qhahn_probe_error(q, alpha, beta, big_n, probes, pol):
    fam = FamilyParams("q_hahn", q, a=q**alpha, b=q**beta, N=big_n)
    worst = 0.0
    for n, x in probes:
        approx = family_eval(fam, n, q ** float(-x), pol=pol)
        target = classical_eval("hahn", n, x, alpha=alpha, beta=beta, N=big_n)
        worst = max(worst, _rel(approx, target))
    return worst


def _path_hahn_from_qhahn(tol, pol):
    alpha, beta, big_n = 0.4, 1.1, 8
    probes = [(1, 2), (3, 5), (4, 7)]
    return _march(
        "hahn_from_qhahn",
        tol,
        [1.0 - 2.0**-j for j in range(2, 14)],
        lambda q: _qhahn_probe_error(q, alpha, beta, big_n, probes, pol),
    )


def _krawtchouk_path(name, make_family, p_of_param, param, tol, pol, jmax=14):
    big_n = 8
    probes = [(1, 2), (3, 5), (4, 7)]

    def err(q):
        fam = make_family(q, param, big_n)
        worst = 0.0
        for n, x in probes:
            approx = family_eval(fam, n, q ** float(-x), pol=pol)
            target = classical_eval(
                "krawtchouk", n, x, p=p_of_param(param), N=big_n
            )
            worst = max(worst, _rel(approx, target))
        return worst

    return _march(name, tol, [1.0 - 2.0**-j for j in range(2, jmax)], err)


def _path_krawtchouk_from_qkrawtchouk(tol, pol):
    return _krawtchouk_path(
        "krawtchouk_from_qkrawtchouk",
        lambda q, b, N: FamilyParams("q_krawtchouk", q, b=b, N=N),
        lambda b: b / (b + 1.0),
        1.5,
        tol,
        pol,
    )


def _path_krawtchouk_from_affine_qkrawtchouk(tol, pol):
    return _krawtchouk_path(
        "krawtchouk_from_affine_qkrawtchouk",
        lambda q, a, N: FamilyParams("affine_q_krawtchouk", q, a=a, N=N),
        lambda a: 1.0 - a,
        0.35,
        tol,
        pol,
    )


def _path_krawtchouk_from_affine_qinv_krawtchouk(tol, pol):
    return _krawtchouk_path(
        "krawtchouk_from_affine_qinv_krawtchouk",
        lambda q, b, N: FamilyParams("affine_qinv_krawtchouk", q, b=b, N=N),
        lambda b: 1.0 / b,
        2.5,
        tol,
        pol,
        jmax=17,
    )


def _path_jacobi_from_little_qjacobi(tol, pol):
    alpha, beta = 0.4, 1.1
    probes = [(1, 0.3), (3, 0.3), (4, 0.8)]

    def err(q):
        worst = 0.0
        for n, x in probes:
            approx = little_qjacobi(n, x, q**alpha, q**beta, q, pol=pol)
            target = hyp_terminating(
                [-n, n + alpha + beta + 1.0], [alpha + 1.0], x
            )
            worst = max(worst, _rel(approx, target))
        return worst

    return _march(
        "jacobi_from_little_qjacobi",
        tol,
        [1.0 - 2.0**-j for j in range(2, 14)],
        err,
    )


def _path_laguerre_from_little_qjacobi(tol, pol):
    alpha, b = 0.7, 0.5
    probes = [(1, 0.5), (3, 0.5), (4, 2.0)]

    def err(q):
        worst = 0.0
        for n, x in probes:
            approx = little_qjacobi(
                n, (1.0 - q) * x / (1.0 - b), q**alpha, b, q, pol=pol
            )
            target = hyp_terminating([-n], [alpha + 1.0], x)
            worst = max(worst, _rel(approx, target))
        return worst

    return _march(
        "laguerre_from_little_qjacobi",
        tol,
        [1.0 - 2.0**-j for j in range(2, 14)],
        err,
    )


def _path_laguerre_from_big_qlaguerre(tol, pol):
    alpha, c = 0.7, 2.0
    probes = [(1, 0.3), (3, 0.3), (4, 1.2)]

    def err(q):
        fam = FamilyParams(
            "big_q_laguerre", q, a=q**alpha, c=c, d=1.0 / (1.0 - q)
        )
        worst = 0.0
        for n, x in probes:
            approx = family_eval(fam, n, x, pol=pol)
            target = hyp_terminating([-n], [alpha + 1.0], c - x)
            worst = max(worst, _rel(approx, target))
        return worst

    return _march(
        "laguerre_from_big_qlaguerre",
        tol,
        [1.0 - 2.0**-j for j in range(2, 14)],
        err,
    )


def _path_aw_to_big_qjacobi(tol, pol):
    q = 0.45
    a, b, c, d = 0.6, 0.4, 1.3, 0.8
    probes = [(1, 0.5), (2, -0.3), (3, 0.5)]
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = BigQJacobiParams(a, b, c, d, q)

    def err(lam):
        rt = math.sqrt(q * d / c)
        rti = math.sqrt(q * c / d)
        aw = AWParams(lam * a * rt, rti / lam, -rt / lam, -lam * b * rti, q)
        worst = 0.0
        for n, x in probes:
            xx = math.sqrt(q) * x / (2.0 * lam * math.sqrt(c * d))
            approx = aw_poly_r(n, xx, aw, pol)
            target = big_qjacobi_by_recurrence(n, x, p) / (
                big_qjacobi_by_recurrence(n, c / (q * a), p)
            )
            worst = max(worst, _rel(approx, target))
        return worst

    return _march(
        "aw_to_big_qjacobi", tol, [2.0**-j for j in range(1, 9)], err
    )


def _path_aw_to_little_qjacobi(tol, pol):
    q = 0.45
    a, b = 0.6, 0.4
    probes = [(1, 0.5), (2, 0.15), (3, 0.5)]
    from qspecial.qcore import qpoch

    def err(lam):
        sq = math.sqrt(q)
        aw = AWParams(sq * lam * lam * a, sq / (lam * lam), -sq, -sq * b, q)
        worst = 0.0
        for n, x in probes:
            xx = sq * x / (2.0 * lam * lam)
            approx = aw_poly_r(n, xx, aw, pol)
            target = (
                qpoch(q * b, q, n)
                / qpoch(q ** float(-n) / a, q, n)
                * little_qjacobi(n, x, b, a, q, pol=pol)
            )
            worst = max(worst, _rel(approx, target))
        return worst

    return _march(
        "aw_to_little_qjacobi", tol, [2.0**-j for j in range(1, 9)], err
    )


def _path_hahn_exton_from_little_qjacobi(tol, pol):
    q = 0.45
    a, b = 0.55, 0.3
    probes = [(0, 0.7), (1, 0.7), (2, 1.4)]

    def err(big_n):
        worst = 0.0
        for n, x in probes:
            approx = little_qjacobi(
                big_n - n, q ** float(big_n) * x, a, b, q, pol=pol
            )
            target = eval_phi(
                SeriesSpec([0], [a * q], q, q ** float(n + 1) * x), pol
            )
            worst = max(worst, _rel(approx, target))
        return worst

    return _march(
        "hahn_exton_from_little_qjacobi", tol, list(range(4, 16)), err
    )


def _path_bessel_from_jacobi(tol, pol):
    alpha, beta = 0.7, 0.2
    xs = [0.8, 2.1]

    def err(m):
        worst = 0.0
        for x in xs:
            approx = hyp_terminating(
                [-m, m + alpha + beta + 1.0],
                [alpha + 1.0],
                x * x / (4.0 * m * m),
            )
            target = (
                classical_gamma(alpha + 1.0)
                * (x / 2.0) ** (-alpha)
                * classical_bessel_j(alpha, x)
            )
            worst = max(worst, _rel(approx, target))
        return worst

    return _march("bessel_from_jacobi", tol, [2**j for j in range(2, 13)], err)


def _path_exp_from_Eq(tol, pol):
    zs = [0.8, -1.3, 2.5]

    def err(q):
        return max(
            _rel(E_q((1.0 - q) * z, q, pol), math.exp(z)) for z in zs
        )

    return _march(
        "exp_from_Eq", tol, [1.0 - 2.0**-j for j in range(2, 14)], err
    )


def _path_gamma_from_gamma_q(tol, pol):
    zs = [0.5, 1.7, 3.2]

    def err(q):
        return max(
            _rel(gamma_q(z, q, pol), classical_gamma(z)) for z in zs
        )

    return _march(
        "gamma_from_gamma_q", tol, [1.0 - 2.0**-j for j in range(2, 14)], err
    )


def _path_qbinomial_to_binomial(tol, pol):
    cases = [(8, 3), (10, 5), (12, 2)]

    def err(q):
        return max(
            _rel(qbinomial(n, k, q), math.comb(n, k)) for n, k in cases
        )

    return _march(
        "qbinomial_to_binomial", tol, [1.0 - 2.0**-j for j in range(2, 16)], err
    )


_PATHS = {
    "laguerre_from_jacobi": _path_laguerre_from_jacobi,
    "hermite_from_jacobi": _path_hermite_from_jacobi,
    "hermite_from_laguerre": _path_hermite_from_laguerre,
    "hermite_from_charlier": _path_hermite_from_charlier,
    "jacobi_from_hahn": _path_jacobi_from_hahn,
    "hahn_from_qhahn": _path_hahn_from_qhahn,
    "krawtchouk_from_qkrawtchouk": _path_krawtchouk_from_qkrawtchouk,
    "krawtchouk_from_affine_qkrawtchouk": _path_krawtchouk_from_affine_qkrawtchouk,
    "krawtchouk_from_affine_qinv_krawtchouk": _path_krawtchouk_from_affine_qinv_krawtchouk,
    "jacobi_from_little_qjacobi": _path_jacobi_from_little_qjacobi,
    "laguerre_from_little_qjacobi": _path_laguerre_from_little_qjacobi,
    "laguerre_from_big_qlaguerre": _path_laguerre_from_big_qlaguerre,
    "aw_to_big_qjacobi": _path_aw_to_big_qjacobi,
    "aw_to_little_qjacobi": _path_aw_to_little_qjacobi,
    "hahn_exton_from_little_qjacobi": _path_hahn_exton_from_little_qjacobi,
    "bessel_from_jacobi": _path_bessel_from_jacobi,
    "exp_from_Eq": _path_exp_from_Eq,
    "gamma_from_gamma_q": _path_gamma_from_gamma_q,
    "qbinomial_to_binomial": _path_qbinomial_to_binomial,
}


def list_paths():
    """Sorted names of the available limit paths."""
    return sorted(_PATHS)


def run_limit(name, tolerance=1e-3, pol=DEFAULT_POLICY):
    """Run one named limit path and return its LimitReport."""
    if name not in _PATHS:
        raise UnknownPath(f"unknown limit path {name!r}")
    return _PATHS[name](tolerance, pol)
