"""The q-Hahn tableau of orthogonal polynomials.

Big and little q-Jacobi polynomials with the full shift-operator
machinery (weight, monic/normalized forms, raising/lowering operators,
norms, three term recurrence), the remaining tableau families (q-Hahn,
q-Krawtchouk variants, big q-Laguerre, q-Meixner, Wall, Moak's
q-Laguerre, Al-Salam-Carlitz U/V, Stieltjes-Wigert) with dual
evaluation paths where two series representations exist, discrete /
q-integral orthogonality verifiers, the quadratic transformations
between little and big polynomials, and the q-Taylor coefficient
extractor.

The tableau families form a registry with one FamilyRecord each: the
parameter names, the printed series, a second printed series where one
exists, the Gram builder and the closed-form norm.  family_eval,
family_gram_matrix and family_norms read only the registry.  Special
cases reuse the general code: Al-Salam-Carlitz U takes its recurrence,
Gram and norm from big q-Jacobi with (0, 0, 1, -a), Wall takes little
q-Jacobi's with b = 0, and affine q-Krawtchouk weighs by the q-Hahn
weight at b = 0.

The big q-Jacobi and Moak recurrence tables are closed forms in q^k over
all degrees at once; the a = 0 and a = b = 0 degenerations of big
q-Jacobi take the same forms.  So are the big and little q-Jacobi norms:
big_qjacobi_norm and little_qjacobi_norm return entry n of the lists.
Each run (e;q)_k, k = 0..n, of a norm, a finite weight or the q-Taylor
coefficients is one running product.
"""

import cmath
import math
import warnings
from functools import partial
from typing import NamedTuple

import numpy as np

from qspecial.errors import DomainError, OutOfRangeError
from qspecial.qcalculus import qderiv_backward
from qspecial.qcore import _in_range, _qpoch_prefix, _qpow, check_q, qpoch, qpoch_inf_ratio
from qspecial.qseries import SeriesSpec, eval_phi
from qspecial.recurrence import Recurrence, eval_all, gram, lattice_gram

_MAX_FINITE_N = 60  # keeps q^{-x} in double range down to q = 0.1


class BigQJacobiParams:
    """Parameters (a, b, c, d; q) of the big q-Jacobi family; c, d > 0.

    Positivity of the orthogonality weight holds when either
    -c/(dq) < a < 1/q and -d/(cq) < b < 1/q (real case) or a = c*alpha,
    b = d*conj(alpha) with alpha non-real.  Violations only warn: the
    polynomials remain well-defined.
    """

    __slots__ = ("a", "b", "c", "d", "q")

    def __init__(self, a, b, c, d, q):
        self.q = check_q(q)
        self.a, self.b = complex(a), complex(b)
        self.c, self.d = float(c), float(d)
        if self.c <= 0 or self.d <= 0:
            raise DomainError("c and d must be positive")
        if not self.positive_weight:
            warnings.warn("parameters outside the positive-weight regime", stacklevel=2)

    @property
    def positive_weight(self):
        a, b, c, d, q = self.a, self.b, self.c, self.d, self.q
        if a.imag == 0 and b.imag == 0:
            return -c / (d * q) < a.real < 1 / q and -d / (c * q) < b.real < 1 / q
        alpha = a / c
        return alpha.imag != 0 and abs(b - d * alpha.conjugate()) <= 1e-12 * abs(b)


def big_qjacobi_weight(x, p):
    """Weight (qx/c, -qx/d;q)_oo / (qax/c, -qbx/d;q)_oo.

    Vanishes at x = c/q and x = -d/q; positive on the support lattice in
    the positive-weight regime.
    """
    q = p.q
    return qpoch_inf_ratio(
        [q * x / p.c, -q * x / p.d], [q * p.a * x / p.c, -q * p.b * x / p.d], q
    )


def big_qjacobi(n, x, p):
    """Normalized big q-Jacobi polynomial, value 1 at x = c/(qa):

    3phi2(q^{-n}, q^{n+1}ab, qax/c; qa, -qad/c; q, q).

    Requires a != 0; use the monic version for the a = 0 degenerations.
    """
    if p.a == 0:
        raise DomainError("normalized form needs a != 0 (normalization point c/(qa))")
    q = p.q
    spec = SeriesSpec(
        [q ** float(-n), q ** float(n + 1) * p.a * p.b, q * p.a * x / p.c],
        [q * p.a, -q * p.a * p.d / p.c],
        q,
        q,
    )
    return eval_phi(spec)


def big_qjacobi_norm_point_value(n, p):
    """Value of the monic polynomial at the normalization point c/(qa):

    (c/(qa))^n (qa;q)_n (-qad/c;q)_n / (q^{n+1}ab;q)_n.

    It scales the normalized series to the monic polynomial, the series
    path that the tests hold the recurrence against.
    """
    if p.a == 0:
        raise DomainError("normalization point undefined for a = 0")
    q = p.q
    v = (
        (p.c / (q * p.a)) ** n
        * qpoch(q * p.a, q, n)
        * qpoch(-q * p.a * p.d / p.c, q, n)
        / qpoch(q ** float(n + 1) * p.a * p.b, q, n)
    )
    if v == 0:
        raise DomainError("degenerate parameters: normalization value vanishes")
    return v


def big_qjacobi_second_value(n, p):
    """Normalized value at the other endpoint-like point x = -d/(qb):

    (-ad/(bc))^n (qb;q)_n (-qbc/d;q)_n / ((qa;q)_n (-qad/c;q)_n).
    """
    if p.a == 0 or p.b == 0:
        raise DomainError("requires a, b != 0")
    q = p.q
    return (
        (-p.a * p.d / (p.b * p.c)) ** n
        * qpoch(q * p.b, q, n)
        * qpoch(-q * p.b * p.c / p.d, q, n)
        / (qpoch(q * p.a, q, n) * qpoch(-q * p.a * p.d / p.c, q, n))
    )


def al_salam_carlitz_u(n, x, a, q):
    """Al-Salam-Carlitz polynomial
    U_n^{(a)}(x) = (-1)^n q^{n(n-1)/2} a^n 2phi1(q^{-n}, 1/x; 0; q, qx/a).

    Monic of degree n; orthogonal on [a, 1] for a < 0.
    """
    q = check_q(q)
    if a == 0:
        raise DomainError("a must be nonzero")
    if n == 0:
        return 1.0 + 0.0j
    if x == 0:
        # Newton-basis expansion; the 1/x singularities of the 2phi1 cancel
        total = 0.0 + 0.0j
        term = 1.0 + 0.0j  # (q^{-n};q)_k (q/a)^k prod_{j<k}(x - q^j) / (q;q)_k at x=0
        for k in range(n + 1):
            total += term
            term *= (
                (1.0 - q ** float(k - n)) * (q / a) * (0.0 - q**k) / (1.0 - q ** (k + 1))
            )
        return (-1.0) ** n * q ** (n * (n - 1) / 2) * a**n * total
    body = eval_phi(SeriesSpec([q ** float(-n), 1.0 / x], [0], q, q * x / a))
    return (-1.0) ** n * q ** (n * (n - 1) / 2) * a**n * body


def big_qjacobi_monic(n, x, p):
    """Monic big q-Jacobi polynomial of degree n.

    Evaluated through the three term recurrence, whose coefficients come
    from the closed forms (stable on the support; the terminating-series
    path suffers cancellation for larger n).  The independent series
    path is big_qjacobi_norm_point_value(n, p) * big_qjacobi(n, x, p).
    The same closed forms hold at a = 0 and a = b = 0
    (Al-Salam-Carlitz: U_n^{(a)} = P~_n(x;0,0,1,-a;q)).
    """
    return complex(eval_all(big_qjacobi_recurrence_table(n, p), x)[n, 0])


def big_qjacobi_shift_down(n, x, p):
    """Backward q-derivative of the monic degree-n polynomial at x.

    Satisfies D_q^- P~_n(.;a,b,c,d) = (1-q^n)/(1-q) P~_{n-1}(.;qa,qb,c,d).
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    return qderiv_backward(lambda t: big_qjacobi_monic(n, t, p), x, p.q)


def dq_plus_ab(f, x, p):
    """Parameter-raising first order q-difference operator

    (D_q^{+,a,b} f)(x) = [(1-x/c)(1+x/d) f(x/q)
                          - (1-qax/c)(1+qbx/d) f(x)] / ((1-q)x).
    """
    if x == 0:
        raise DomainError("operator undefined at x = 0")
    q = p.q
    return (
        (1.0 - x / p.c) * (1.0 + x / p.d) * f(x / q)
        - (1.0 - q * p.a * x / p.c) * (1.0 + q * p.b * x / p.d) * f(x)
    ) / ((1.0 - q) * x)


def big_qjacobi_shift_up(n, x, p):
    """D_q^{+,a,b} applied to the monic degree-(n-1) polynomial with
    raised parameters (qa, qb, c, d), evaluated at x.

    Satisfies the raising relation: equals
    (q^2 ab - q^{-n+1}) / ((1-q) c d) * P~_n(x; a, b, c, d).
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        raised = BigQJacobiParams(p.q * p.a, p.q * p.b, p.c, p.d, p.q)
    return dq_plus_ab(lambda t: big_qjacobi_monic(n - 1, t, raised), x, p)


def big_qjacobi_eigenvalue(n, p):
    """Eigenvalue q(1-q^{-n})(1-q^{n+1}ab) / ((1-q)^2 cd) of the second
    order q-difference operator obtained by composing the two shifts."""
    q = p.q
    return (
        q
        * (1.0 - q ** float(-n))
        * (1.0 - q ** float(n + 1) * p.a * p.b)
        / ((1.0 - q) ** 2 * p.c * p.d)
    )


def big_qjacobi_weight_integral(p):
    """Total mass of the weight over the support [-d, c]:

    (1-q) c (q, -d/c, -qc/d, q^2 ab;q)_oo / (qa, qb, -qbc/d, -qad/c;q)_oo.
    """
    q = p.q
    return (1.0 - q) * p.c * qpoch_inf_ratio(
        [q, -p.d / p.c, -q * p.c / p.d, q * q * p.a * p.b],
        [q * p.a, q * p.b, -q * p.b * p.c / p.d, -q * p.a * p.d / p.c],
        q,
    )


def big_qjacobi_norm(n, p):
    """Quadratic norm of the monic polynomial: entry n of big_qjacobi_norms."""
    return big_qjacobi_norms(n, p)[n]


def big_qjacobi_norms(nmax, p):
    """The quadratic norms of the monic polynomials of degrees 0..nmax in
    closed form: the weight integral times

    q^{n(n-1)/2} (cd)^n (q, qa, qb, -qbc/d, -qad/c;q)_n
        / ((q^2 ab;q)_{2n} (q^{n+1}ab;q)_n),

    with the weight integral formed once and each (e;q)_n and
    (q^2 ab;q)_{2n} read from one running product per parameter.  Where
    q^{n(n-1)/2} or (cd)^n alone leaves the double range, their product
    multiplies the other factors as (q^{(n-1)/2} cd)^n, so that a norm
    inside the range is returned; OutOfRangeError names the first degree
    whose norm is not."""
    mass = big_qjacobi_weight_integral(p)
    q, a, b, c, d = p.q, p.a, p.b, p.c, p.d
    runs = [_qpoch_prefix(e, q, nmax) for e in (q, q * a, q * b, -q * b * c / d, -q * a * d / c)]
    doubled = _qpoch_prefix(q * q * a * b, q, 2 * nmax)
    norms = []
    for n in range(nmax + 1):
        num = math.prod([run[n] for run in runs], start=1.0 + 0.0j)  # qpoch_list's order
        den = doubled[2 * n] * qpoch(q ** float(n + 1) * a * b, q, n)
        scale = q ** (n * (n - 1) / 2)
        try:
            norm = scale * (c * d) ** n * num / den * mass
        except OverflowError:
            norm = None
        if norm is None or not _in_range(scale):
            # (q^{(n-1)/2} cd)^n one factor at a time: |norm| moves one way,
            # so it leaves the double range only where its end does
            norm = num / den * mass
            for _ in range(n):
                norm *= q ** ((n - 1) / 2) * c * d
        if not cmath.isfinite(norm):
            raise OutOfRangeError(f"big q-Jacobi norm h_{n} outside the double range")
        norms.append(norm)
    return norms


def big_qjacobi_gram_matrix(nmax, p):
    """Gram matrix int_{-d}^{c} P~_n P~_m w d_qx, n, m <= nmax, of the
    monic family.

    The integral is int_0^c - int_0^{-d}, the two endpoint lattices c q^k
    and -d q^k of one walk, the second with its weight negated.  The
    values come from the three term recurrence; the weight takes its
    infinite products once at each lattice end and steps inward by
    w(qx)/w(x) = (1-qax/c)(1+qbx/d) / ((1-qx/c)(1+qx/d)).  Diagonal
    entries match big_qjacobi_norm, off-diagonals vanish.
    """
    if nmax < 0:
        raise DomainError("degree must be nonnegative")
    q, a, b, c, d = p.q, p.a, p.b, p.c, p.d
    values = partial(eval_all, big_qjacobi_recurrence_table(nmax, p))

    def ratio(x):
        return (1.0 - q * a * x / c) * (1.0 + q * b * x / d) / (
            (1.0 - q * x / c) * (1.0 + q * x / d)
        )

    return lattice_gram(
        values,
        (c, q, big_qjacobi_weight(c, p), ratio),
        (-d, q, -big_qjacobi_weight(-d, p), ratio),
    )


def big_qjacobi_recurrence(n, p):
    """Coefficients (B_n, C_n) of x P~_n = P~_{n+1} + B_n P~_n + C_n P~_{n-1}:
    row n of big_qjacobi_recurrence_table."""
    rec = big_qjacobi_recurrence_table(n + 1, p)
    return complex(rec.b[n]), complex(rec.c[n])


def big_qjacobi_recurrence_table(n, p):
    """The recurrence of P~_0..P~_n, x P~_k = P~_{k+1} + B_k P~_k
    + C_k P~_{k-1} for k < n, as arrays over Q = q^k in one pass.

    C_k = q^{k-1}(1-Q)(1-aQ)(1-bQ)(1-abQ)(d+bcQ)(c+adQ)
          / ((1-abQ^2/q)(1-abQ^2)^2(1-abqQ^2)),  C_0 = 0,

    and B_k = x0 (1 - A~_k - C~_k) from the recurrence of the polynomials
    normalized to 1 at x0 = c/(qa) (Koornwinder's tutorial, section 2; KLS
    section 14.5), which over a common denominator divides by no parameter.
    With u = ad - bc and w = d - c:

    B_k = -Q (u + w - (1+q)Q (ab w + u) + abqQ^2 (u + w))
          / ((1-abQ^2)(1-abq^2Q^2)).

    Row 0 is B_0 = (q u - w)/(1 - q^2 ab), with the factor 1 - ab that its
    formula shares at Q = 1 divided out, so that a = b = 1 (big
    q-Legendre) needs no limit.  At a = 0 and at a = b = 0
    (Al-Salam-Carlitz U) the same forms hold.
    """
    q = p.q
    a, b, c, d = p.a, p.b, p.c, p.d
    ab, u, w = a * b, a * d - b * c, d - c
    g0, g1, g2 = u + w, -(1.0 + q) * (ab * w + u), ab * q * (u + w)
    B, C = np.zeros((2, n), dtype=complex)
    B[:1] = (q * u - w) / (1.0 - q * q * ab)
    Q = q ** np.arange(1, n, dtype=float)
    abq2 = ab * Q * Q
    mid = 1.0 - abq2
    B[1:] = -Q * (g0 + Q * (g1 + Q * g2)) / (mid * (1.0 - abq2 * q * q))
    factors = np.prod(1.0 - np.array([[1.0], [a], [b], [ab]]) * Q, axis=0)
    C[1:] = (
        Q / q * factors * (d + b * c * Q) * (c + a * d * Q)
        / ((1.0 - abq2 / q) * mid * mid * (1.0 - abq2 * q))
    )
    return Recurrence(1.0, np.ones(n, dtype=complex), B, C)


def qtaylor_coefficients(f, n, a, c, q):
    """Coefficients c_k of f(x) = sum_k c_k (qax/c;q)_k for a polynomial
    f of degree <= n in that basis.

    Recovered from iterated backward q-derivatives at the special points
    c/(q^{k+1}a), where all basis terms but one drop out:

    ((D_q^-)^k f)(c/(q^{k+1}a))
        = c_k (-1)^k (qa/c)^k q^{k(k-1)/2} (q;q)_k / (1-q)^k.
    """
    q = check_q(q)
    qq = _qpoch_prefix(q, q, n)
    coeffs = []
    g = f
    for k in range(n + 1):
        point = c / (q ** (k + 1) * a)
        denom = (-1.0) ** k * (q * a / c) ** k * q ** (k * (k - 1) / 2) * qq[k] / (1.0 - q) ** k
        coeffs.append(g(point) / denom)
        g = (lambda h: lambda x: qderiv_backward(h, x, q))(g)
    return coeffs


def little_qjacobi(n, x, a, b, q, form="2phi1"):
    """Little q-Jacobi polynomial p_n(x;a,b;q), value 1 at x = 0.

    Primary path: 2phi1(q^{-n}, q^{n+1}ab; qa; q, qx).
    Alternative (b != 0):
    (-qb)^{-n} q^{-n(n-1)/2} (qb;q)_n/(qa;q)_n
        * 3phi2(q^{-n}, q^{n+1}ab, qbx; qb, 0; q, q).
    """
    q = check_q(q)
    if form == "2phi1":
        return eval_phi(
            SeriesSpec([_qpow(q, -n), _qpow(q, n + 1) * a * b], [q * a], q, q * x)
        )
    if form == "3phi2":
        if b == 0:
            raise DomainError("3phi2 path requires b != 0")
        body = eval_phi(
            SeriesSpec(
                [q ** float(-n), q ** float(n + 1) * a * b, q * b * x], [q * b, 0], q, q
            )
        )
        return (
            (-q * b) ** (-n)
            * q ** (-n * (n - 1) / 2)
            * qpoch(q * b, q, n)
            / qpoch(q * a, q, n)
            * body
        )
    raise DomainError(f"unknown form {form!r}")


def little_qjacobi_gram_matrix(nmax, a, b, q):
    """Normalized q-integral Gram matrix of the little q-Jacobi family,
    n, m <= nmax:

    (1/B) int_0^1 p_n p_m t^alpha (qt;q)_oo/(qbt;q)_oo d_qt,

    with a = q^alpha, b = q^beta and B the corresponding q-beta value
    (1-q)(q, q^2 ab;q)_oo / ((qa, qb;q)_oo).  b = 0 (Wall) is allowed.
    The weight takes its products once at t = 1 and steps by
    w(qt)/w(t) = q^alpha (1-qbt)/(1-qt); the series of every degree is
    summed at all nodes of a chunk in one walk, a column of degrees
    against the row of nodes.
    """
    q = check_q(q)
    if nmax < 0:
        raise DomainError("degree must be nonnegative")
    if not 0 < a < 1:
        raise DomainError("requires 0 < a < 1")
    alpha = math.log(a) / math.log(q)
    w0 = qpoch_inf_ratio([q], [q * b], q)

    def ratio(t):
        return q**alpha * (1.0 - q * b * t) / (1.0 - q * t)

    degrees = np.arange(nmax + 1)[:, None]
    values = lambda t: little_qjacobi(degrees, t, a, b, q)

    total = lattice_gram(values, (1.0, q, w0, ratio))
    norm = qpoch_inf_ratio([q, q * q * a * b], [q * a, q * b], q, math.log1p(-q))
    return total / norm


def _little_qjacobi_norms(nmax, a, b, q):
    """The closed-form diagonal of the normalized Gram, degrees 0..nmax,

    (qa)^n (1-qab)(qb;q)_n (q;q)_n / ((1-q^{2n+1}ab)(qa;q)_n (qab;q)_n),

    with each (e;q)_n read from one running product per parameter."""
    q = check_q(q)
    qb, qq, qa, qab = (_qpoch_prefix(e, q, nmax) for e in (q * b, q, q * a, q * a * b))
    norms = []
    for n in range(nmax + 1):
        den = (1.0 - q ** float(2 * n + 1) * a * b) * qa[n] * qab[n]
        if den == 0:
            raise DomainError(f"little q-Jacobi norm at n = {n} divides by 0")
        norms.append((q * a) ** n * (1.0 - q * a * b) * qb[n] * qq[n] / den)
    return norms


def little_qjacobi_norm(n, a, b, q):
    """Closed-form diagonal of the normalized Gram: entry n of
    _little_qjacobi_norms."""
    return _little_qjacobi_norms(n, a, b, q)[n]


# ---------------------------------------------------------------------------
# tableau families


class FamilyRecord(NamedTuple):
    """One tableau family.  Each callable takes the parameters in the
    order of keys, then q: the printed series and the optional second one
    (n, x, *params, q), the optional Gram builder
    (nmax, *params, q) and the optional closed-form diagonal of that
    Gram, degrees 0..nmax (nmax, *params, q)."""

    keys: tuple
    series: object
    alt: object
    gram: object
    norms: object


_FAMILIES = {}


def _family(name, keys, series, alt=None, gram=None, norms=None):
    if name in _FAMILIES:
        raise DomainError(f"duplicate family {name!r}")
    _FAMILIES[name] = FamilyRecord(keys, series, alt, gram, norms)


class FamilyParams:
    """Tagged parameter bundle for a tableau family; N is stored as an int."""

    __slots__ = ("name", "q", "params")

    def __init__(self, name, q, **kwargs):
        if name not in _FAMILIES:
            raise DomainError(f"unknown family {name!r}")
        keys = _FAMILIES[name].keys
        if set(kwargs) != set(keys):
            raise DomainError(f"family {name!r} takes parameters {keys}")
        self.name = name
        self.q = check_q(q)
        if "N" in keys:
            big_n = kwargs["N"]
            if not (0 <= big_n <= _MAX_FINITE_N and big_n == int(big_n)):
                raise DomainError(f"N must be an integer in [0, {_MAX_FINITE_N}]")
            kwargs["N"] = int(big_n)
        self.params = tuple(kwargs[k] for k in keys)

    @property
    def record(self):
        return _FAMILIES[self.name]

    def __getitem__(self, key):
        return self.params[self.record.keys.index(key)]


def _check_degree(fam, n):
    if n < 0:
        raise DomainError("degree must be nonnegative")
    if "N" in fam.record.keys and n > fam["N"]:
        raise DomainError("degree exceeds N")


def family_eval(fam, n, x, form="primary"):
    """Evaluate the degree-n polynomial of the family at x.

    form="alt" selects the second printed series representation for the
    families that have one (big q-Laguerre, Wall, Moak, the affine
    q-Krawtchouk pair, little q-Jacobi), and for Al-Salam-Carlitz U the
    big q-Jacobi recurrence with (0, 0, 1, -a); elsewhere it raises.
    """
    _check_degree(fam, n)
    if form not in ("primary", "alt"):
        raise DomainError(f"unknown form {form!r}")
    series = fam.record.alt if form == "alt" else fam.record.series
    if series is None:
        raise DomainError(f"{fam.name} has a single printed representation")
    return series(n, x, *fam.params, fam.q)


def family_gram_matrix(fam, nmax):
    """Gram matrix <p_n, p_m>, n, m <= nmax, of the family under its
    printed measure.

    Finite families are summed exactly over x = 0..N; q-integral
    measures are tail-truncated by the tail rule, with each weight stepped
    along its lattice by its ratio w(qx)/w(x).  Families without a
    printed measure (q-Meixner, Al-Salam-Carlitz V, Stieltjes-Wigert,
    case 3a) raise DomainError.
    """
    _check_degree(fam, nmax)
    if fam.record.gram is None:
        raise DomainError(f"no printed orthogonality measure for {fam.name!r}")
    return fam.record.gram(nmax, *fam.params, fam.q)


def family_norms(fam, nmax):
    """Closed-form diagonal [<p_n, p_n> for n <= nmax] of
    family_gram_matrix, or None for a family without one."""
    _check_degree(fam, nmax)
    norms = fam.record.norms
    return None if norms is None else norms(nmax, *fam.params, fam.q)


def _finite_gram(series, weights):
    """Gram builder of a family whose last parameter is N: the exact sum
    over the points q^{-x}, x = 0..N, with the N + 1 weights of
    weights(*params, q).  The series of every degree is summed at all
    points in one walk, a column of degrees against the row of points."""

    def build(nmax, *args):
        q = args[-1]
        nodes = _qpow(q, -np.arange(args[-2] + 1))
        v = series(np.arange(nmax + 1)[:, None], nodes, *args)
        return gram(v, np.array(weights(*args), dtype=complex))

    return build


def _q_hahn(n, x, a, b, big_n, q):
    return eval_phi(
        SeriesSpec(
            [_qpow(q, -n), a * b * _qpow(q, n + 1), x], [a * q, q ** float(-big_n)], q, q
        )
    )


def _weight_power(base, x):
    """base ** x in a finite weight: DomainError where base = 0 and x < 0,
    OutOfRangeError where the power leaves the double range."""
    if base == 0 and x < 0:
        raise DomainError(f"weight power 0^{x} undefined")
    try:
        value = base**x
    except (OverflowError, ZeroDivisionError):  # a tiny complex base: 1 / base^{-x} underflowed
        value = math.inf
    if not cmath.isfinite(value):
        raise OutOfRangeError(f"weight power ({base})^{x} outside the double range")
    return value


def _q_hahn_weights(a, b, big_n, q):
    """The q-Hahn weights (aq;q)_x (bq;q)_{N-x} (aq)^{-x} / ((q;q)_x (q;q)_{N-x}),
    x = 0..N, from one running product per parameter."""
    qa, qb, qq = (_qpoch_prefix(e, q, big_n) for e in (a * q, b * q, q))
    return [
        qa[x] * qb[big_n - x] * _weight_power(a * q, float(-x)) / (qq[x] * qq[big_n - x])
        for x in range(big_n + 1)
    ]


def _q_krawtchouk(n, x, b, big_n, q):
    return eval_phi(
        SeriesSpec([_qpow(q, -n), -_qpow(q, n) / b, x], [0, q ** float(-big_n)], q, q)
    )


def _affine_q_krawtchouk(n, x, a, big_n, q):
    return eval_phi(SeriesSpec([_qpow(q, -n), 0, x], [a * q, q ** float(-big_n)], q, q))


def _affine_qinv_krawtchouk(n, x, b, big_n, q):
    return eval_phi(
        SeriesSpec([_qpow(q, -n), x], [q ** float(-big_n)], q, b * _qpow(q, n + 1))
    )


def _q_krawtchouk_weights(b, big_n, q):
    """The q-Krawtchouk weights (q^{-N};q)_x (-b)^x / (q;q)_x, x = 0..N."""
    qn, qq = (_qpoch_prefix(e, q, big_n) for e in (q ** float(-big_n), q))
    return [qn[x] * _weight_power(-b, x) / qq[x] for x in range(big_n + 1)]


def _affine_qinv_krawtchouk_weights(b, big_n, q):
    """The affine q^{-1}-Krawtchouk weights
    (bq;q)_{N-x} (-1)^{N-x} q^{x(x-1)/2} / ((q;q)_x (q;q)_{N-x}), x = 0..N."""
    qb, qq = (_qpoch_prefix(e, q, big_n) for e in (b * q, q))
    return [
        qb[big_n - x] * (-1.0) ** (big_n - x) * q ** (x * (x - 1) / 2) / (qq[x] * qq[big_n - x])
        for x in range(big_n + 1)
    ]


def _q_meixner(n, x, a, c, q):
    return eval_phi(SeriesSpec([q ** float(-n), x], [q * a], q, -q ** float(n + 1) / c))


def _big_q_laguerre_alt(n, x, a, c, d, q):
    if x == 0:
        raise DomainError("alt path needs x != 0")
    qn = q ** float(-n)
    pref = 1.0 / qpoch(-qn * c / (a * d), q, n)
    return pref * eval_phi(SeriesSpec([qn, c / x], [q * a], q, -q * x / d))


def _wall_alt(n, x, a, q):
    if x == 0:
        raise DomainError("alt path needs x != 0")
    qn = q ** float(-n)
    pref = 1.0 / qpoch(qn / a, q, n)
    return pref * eval_phi(SeriesSpec([qn, 1.0 / x], [], q, x / a))


def _moak(n, x, alpha, q):
    pref = qpoch(q ** (alpha + 1.0), q, n) / qpoch(q, q, n)
    z = -x * q ** (n + alpha + 1)
    body = eval_phi(SeriesSpec([q ** float(-n)], [q ** (alpha + 1.0)], q, z))
    return pref * body


def _moak_alt(n, x, alpha, q):
    return eval_phi(
        SeriesSpec([q ** float(-n), -x], [0], q, q ** (n + alpha + 1))
    ) / qpoch(q, q, n)


def _moak_recurrence_table(nmax, alpha, q):
    """The recurrence of L_0..L_nmax (Koekoek, Lesky and Swarttouw 2010,
    14.21.3) divided by q^{2n+alpha+1}, as arrays over n < nmax:

    -x L_n = A_n L_{n+1} - (A_n + C_n) L_n + C_n L_{n-1},
    A_n = (1-q^{n+1}) / q^{2n+alpha+1}, C_n = q(1-q^{n+alpha}) / q^{2n+alpha+1}.
    """
    n = np.arange(nmax)
    # a scale beyond the double range is inf; the lattice walk that runs
    # the table raises OutOfRangeError at the first node it spoils
    with np.errstate(over="ignore"):
        scale = q ** -(2 * n + alpha + 1.0)
    a_n = (1.0 - q ** (n + 1.0)) * scale + 0j
    c_n = q * (1.0 - q ** (n + alpha)) * scale + 0j
    return Recurrence(-1.0, a_n, -(a_n + c_n), c_n)


def _moak_gram(nmax, alpha, q):
    # bilateral q-integral of x^alpha / (-(1-q)x;q)_oo; the polynomials
    # are sampled at (1-q)x so that the lattice matches that factor
    rec = _moak_recurrence_table(nmax, alpha, q)
    values = lambda x: eval_all(rec, (1.0 - q) * x)
    w0 = qpoch_inf_ratio([], [-(1.0 - q)], q)

    def down(x):
        return q**alpha * (1.0 + (1.0 - q) * x)

    def up(x):
        return q**-alpha / (1.0 + (1.0 - q) * x / q)

    # both half-lines in one walk; the up-half rides on the down-half's passes
    return lattice_gram(values, (1.0, q, w0, down), (1.0 / q, 1.0 / q, w0 * up(1.0), up))


def _u_as_big_qjacobi(a, q):
    """U_n^{(a)}(x) = P~_n(x; 0, 0, 1, -a; q) (Koekoek, Lesky and
    Swarttouw 2010, 14.24), so U has the big q-Jacobi measure on [a, 1]."""
    if not a < 0:
        raise DomainError("the big q-Jacobi form of U requires a < 0")
    return BigQJacobiParams(0, 0, 1.0, -a, q)


def _al_salam_carlitz_v(n, x, a, q):
    if a == 0:
        raise DomainError("a must be nonzero")
    body = eval_phi(SeriesSpec([q ** float(-n), x], [], q, q ** float(n) / a))
    return (-1.0) ** n * q ** (-n * (n - 1) / 2) * a**n * body


def _stieltjes_wigert(n, x, q):
    body = eval_phi(SeriesSpec([q ** float(-n)], [0], q, -q ** (n + 1.5) * x))
    return (-1.0) ** n * q ** (-n * (2 * n + 1) / 2) * body


def _case_3a(n, x, b, q):
    # undocumented case: series evaluation only, no orthogonality claim
    return eval_phi(SeriesSpec([q ** float(-n), q ** float(n) * b], [0], q, q * x))


_family(
    "q_hahn",
    ("a", "b", "N"),
    _q_hahn,
    gram=_finite_gram(_q_hahn, _q_hahn_weights),
)
_family(
    "q_krawtchouk",
    ("b", "N"),
    _q_krawtchouk,
    gram=_finite_gram(_q_krawtchouk, _q_krawtchouk_weights),
)
_family(
    "affine_q_krawtchouk",
    ("a", "N"),
    _affine_q_krawtchouk,
    # the q-Hahn polynomial Q_n(x; a, 0, N; q)
    lambda n, x, a, big_n, q: _q_hahn(n, x, a, 0, big_n, q),
    _finite_gram(_affine_q_krawtchouk, lambda a, big_n, q: _q_hahn_weights(a, 0, big_n, q)),
)
_family(
    "affine_qinv_krawtchouk",
    ("b", "N"),
    _affine_qinv_krawtchouk,
    lambda n, x, b, big_n, q: _q_meixner(n, x, q ** float(-big_n - 1), -1.0 / b, q),
    _finite_gram(_affine_qinv_krawtchouk, _affine_qinv_krawtchouk_weights),
)
_family("q_meixner", ("a", "c"), _q_meixner)
_family(
    "big_q_laguerre",
    ("a", "c", "d"),
    lambda n, x, a, c, d, q: eval_phi(
        SeriesSpec([q ** float(-n), 0, q * a * x / c], [q * a, -q * a * d / c], q, q)
    ),
    _big_q_laguerre_alt,
)
_family(
    "wall",
    ("a",),
    lambda n, x, a, q: little_qjacobi(n, x, a, 0.0, q),
    _wall_alt,
    lambda nmax, a, q: little_qjacobi_gram_matrix(nmax, a, 0.0, q),
    lambda nmax, a, q: _little_qjacobi_norms(nmax, a, 0.0, q),
)
_family("moak", ("alpha",), _moak, _moak_alt, _moak_gram)
_family(
    "al_salam_carlitz_u",
    ("a",),
    al_salam_carlitz_u,
    lambda n, x, a, q: big_qjacobi_monic(n, x, _u_as_big_qjacobi(a, q)),
    lambda nmax, a, q: big_qjacobi_gram_matrix(nmax, _u_as_big_qjacobi(a, q)),
    lambda nmax, a, q: big_qjacobi_norms(nmax, _u_as_big_qjacobi(a, q)),
)
_family("al_salam_carlitz_v", ("a",), _al_salam_carlitz_v)
_family("stieltjes_wigert", (), _stieltjes_wigert)
_family(
    "little_q_jacobi",
    ("a", "b"),
    little_qjacobi,
    lambda n, x, a, b, q: little_qjacobi(n, x, a, b, q, form="3phi2"),
    little_qjacobi_gram_matrix,
    _little_qjacobi_norms,
)
_family("case_3a", ("b",), _case_3a)


# ---------------------------------------------------------------------------
# quadratic transformations


def quadratic_transform_check(n, a, q, x=0.35):
    """Residuals of the even/odd quadratic transformations linking
    normalized big q-Jacobi with parameters (a, a, 1, 1) to little
    q-Jacobi in base q^2:

    even: P_{2n}(x) = p_n(x^2; q^{-1}, a^2; q^2) / p_n((qa)^{-2}; ...)
    odd:  P_{2n+1}(x) = x p_n(x^2; q, a^2; q^2)
                          / ((qa)^{-1} p_n((qa)^{-2}; ...)).
    """
    q = check_q(q)
    p = BigQJacobiParams(a, a, 1.0, 1.0, q)
    q2 = q * q
    x0 = (q * a) ** (-2.0)
    even = big_qjacobi(2 * n, x, p) - little_qjacobi(
        n, x * x, 1.0 / q, a * a, q2
    ) / little_qjacobi(n, x0, 1.0 / q, a * a, q2)
    odd = big_qjacobi(2 * n + 1, x, p) - x * little_qjacobi(
        n, x * x, q, a * a, q2
    ) / ((q * a) ** (-1.0) * little_qjacobi(n, x0, q, a * a, q2))
    return even, odd


def quadratic_transform_u(n, x, q):
    """Mutual residuals of the three printed forms of U_n^{(-1)}:

    q^{n(n-1)/2} 2phi1(q^{-n}, 1/x; 0; q, -qx)
      = monic big q-Jacobi with (0,0,1,1)
      = x^n 2phi0(q^{-n}, q^{-n+1}; -; q^2, q^{2n-1} x^{-2}).
    """
    q = check_q(q)
    if x == 0:
        raise DomainError("x must be nonzero")
    u = al_salam_carlitz_u(n, x, -1.0, q)
    via_big = big_qjacobi_monic(n, x, BigQJacobiParams(0, 0, 1.0, 1.0, q))
    body = eval_phi(
        SeriesSpec(
            [q ** float(-n), q ** float(-n + 1)],
            [],
            q * q,
            q ** float(2 * n - 1) / (x * x),
        )
    )
    via_wall = x**n * body
    return u - via_big, u - via_wall


def quadratic_transform_v(n, x, q):
    """Residual of the two printed forms of i^{-n} V_n^{(-1)}(ix):

    i^{-n} q^{-n(n-1)/2} 2phi0(q^{-n}, ix; -; q, -q^n)
      = x^n 2phi1(q^{-n}, q^{-n+1}; 0; q^2, -q^2 x^{-2}).
    """
    q = check_q(q)
    if x == 0:
        raise DomainError("x must be nonzero")
    body = eval_phi(SeriesSpec([q ** float(-n), 1j * x], [], q, -q ** float(n)))
    lhs = 1j ** (-n) * q ** (-n * (n - 1) / 2) * body
    rhs = x**n * eval_phi(
        SeriesSpec(
            [q ** float(-n), q ** float(-n + 1)], [0], q * q, -q * q / (x * x)
        )
    )
    return lhs - rhs
