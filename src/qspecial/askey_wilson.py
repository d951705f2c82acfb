"""Askey-Wilson machinery.

The Askey-Wilson weight on the unit circle, its integral in closed form
and by spectrally accurate periodic quadrature, the four-parameter
polynomials (series and recurrence paths), quadratic norms, the second
order q-difference operator, and the special and limit families:
q-ultraspherical (three printed forms), continuous q-Hermite, and the
finite q-Racah family with numerically derived weights.

The quadrature weights on a node grid split each product by qcore's peel
rule: the peeled factors are logs at the nodes, and the log-series tails
of all products are one Fourier series, summed by one inverse FFT.
The recurrence table is closed forms in q^k over all degrees at once, so
the recurrence path makes no q-Pochhammer product per degree; at
(a, b, 0, 0) it is the Al-Salam-Chihara recurrence.  The norms are one
closed form over all degrees, aw_norms, of which aw_norm is entry n, and
each run (e;q)_k, k = 0..n, of the norms and of the Fourier sums of
continuous q-Hermite and q-ultraspherical is one running product.
"""

import cmath
import math

import numpy as np

from qspecial.errors import DomainError
from qspecial.qcore import (
    _BLOCK, TAIL_EPSILON, _double, _exp_log, _finite, _peel_length, _qpoch_prefix, _qpow,
    _termination_degree, check_q, qpoch, qpoch_inf_ratio, qpoch_list,
)
from qspecial.qseries import SeriesSpec, eval_phi
from qspecial.recurrence import Recurrence, eval_all, gram


class AWParams:
    """Parameters (a, b, c, d; q).  The closed-form integral and the
    positive orthogonality measure need |a|,|b|,|c|,|d| < 1 and the
    parameter set closed under complex conjugation."""

    __slots__ = ("a", "b", "c", "d", "q")

    def __init__(self, a, b, c, d, q):
        self.q = check_q(q)
        self.a, self.b, self.c, self.d = complex(a), complex(b), complex(c), complex(d)

    @property
    def abcd(self):
        return (self.a, self.b, self.c, self.d)

    @property
    def in_polydisc(self):
        return all(abs(e) < 1 for e in self.abcd)

    @property
    def conjugate_closed(self):
        """True when {a, b, c, d} equals its conjugate set exactly, as for
        real parameters or conjugate pairs."""
        key = lambda w: (w.real, w.imag)
        return sorted(self.abcd, key=key) == sorted((w.conjugate() for w in self.abcd), key=key)


def _h0(p, log_factor=0.0):
    """(abcd;q)_oo / (q, ab, ac, ad, bc, bd, cd;q)_oo, as one exp of logs."""
    a, b, c, d = p.abcd
    pairs = [p.q, a * b, a * c, a * d, b * c, b * d, c * d]
    return qpoch_inf_ratio([a * b * c * d], pairs, p.q, log_factor)


def aw_integral_closed(p):
    """Closed form of the contour integral (1/2 pi i) oint w(z) dz/z:

    2 (abcd;q)_oo / (ab, ac, ad, bc, bd, cd, q;q)_oo.
    """
    a, b, c, d = p.abcd
    for e in p.abcd:
        if abs(e) > 1.0 + 1e-12:
            raise DomainError("closed form requires |a|,|b|,|c|,|d| <= 1")
    for pair in (a * b, a * c, a * d, b * c, b * d, c * d):
        if abs(pair - 1.0) < 1e-12:
            raise DomainError("degenerate parameter pair ef = 1")
    return _h0(p, math.log(2.0))


def _midpoint_grid(p, n_nodes):
    """(cos theta, w / top, top / (2 n_nodes)) on z = e^{i theta},
    theta = 2 pi (j+1/2) / n_nodes, with top the largest |w|.

    log w = log(z^2, z^{-2};q)_oo - sum_e log(ez, e/z;q)_oo.  Each
    (a z^s;q)_oo is split by qcore's peel rule: the factors with
    |a q^j| > 1/2 are logs at the nodes, and the rest is the log series
    -sum_k (a q^n)^k z^{sk} / (k (1 - q^k)), so the tails of all ten make
    one Fourier series sum_m F_m (e^{im theta} + e^{-im theta}), m >= 1.
    At the nodes sum_m F_m e^{im theta_j} is one inverse FFT of
    G[m mod n_nodes] += F_m e^{i pi m / n_nodes}, exact for m >= n_nodes
    too.  When the parameter set equals its conjugate set, log w =
    2 Re(log(z^2;q)_oo - sum_e log(ez;q)_oo), whose peeled factors are
    real logs log|1 - a q^j z^s|.  w is even in theta: node n_nodes-1-j
    mirrors node j, so the peeled factors are formed at half the nodes.
    The scale alone leaves log form (OutOfRangeError outside the double
    range), so no weight need be a double.  The midpoint offset avoids the
    0/0 points z = +-1 of parameters with |e| = 1.  Needs n_nodes >= 16."""
    from numpy.fft import ifft  # only a grid loads pocketfft

    if n_nodes < 16:
        raise DomainError("need n_nodes >= 16")
    lq, half, closed = math.log(p.q), (n_nodes + 1) // 2, p.conjugate_closed
    # (2j + 1) / n_nodes rounds once, so node j is node 3j + 1 of 3 n_nodes, bit for bit
    theta = math.pi * ((2 * np.arange(half) + 1) / n_nodes)
    # the products (a z^s;q)_oo with s > 0 and their signs in log w
    a, (s, sign) = np.array([1.0, *p.abcd]), np.array([[2, 1, 1, 1, 1], [1, -1, -1, -1, -1]])
    zs = np.exp(1j * np.outer(s, theta))
    peels = [_peel_length(v, lq) for v in np.abs(a).tolist()]
    pick = np.repeat(np.arange(5), peels)  # the product of each peeled factor
    coef = a[pick] * np.exp(lq * np.concatenate([np.arange(n) for n in peels]))
    head, block = np.zeros(half, float if closed else complex), max(1, _BLOCK // half)
    for j in range(0, len(pick), block):
        c, at = coef[j : j + block, None], pick[j : j + block]
        f = 1.0 - c * zs[at]
        logs = np.log(np.abs(f)) if closed else np.log(f * (1.0 - c * zs[at].conj()))
        head += (sign[at, None] * logs).sum(axis=0)  # not @, which loads BLAS (0.3 MB)
    b = a * np.exp(lq * np.array(peels))
    r = np.abs(b).max()
    # _log_tail's stop at the largest |b|, every term being at most r^k / (1 - q)
    n_terms = math.ceil(math.log(TAIL_EPSILON * (1.0 - r) / r * -math.expm1(lq)) / math.log(r))
    k = np.arange(1, n_terms + 1)
    powers = np.cumprod(np.repeat(b[:, None], n_terms, axis=1), axis=1)  # b^k
    terms, m = sign[:, None] * powers / (k * np.expm1(k * lq)), s[:, None] * k
    g = np.zeros(n_nodes, complex)
    np.add.at(g, m % n_nodes, terms * np.exp(1j * math.pi / n_nodes * m))
    if not closed:
        np.add.at(g, -m % n_nodes, terms * np.exp(-1j * math.pi / n_nodes * m))
    tail = ifft(g, norm="forward")[:half]
    log_w = 2.0 * (head + tail.real) if closed else head + tail
    top = log_w.real.max()
    scale = _exp_log(top - math.log(2.0 * n_nodes))
    x, w = np.cos(theta), np.exp(log_w - top)
    mirror = slice(n_nodes // 2 - 1, None, -1)  # nodes n_nodes//2 - 1, ..., 0
    return np.concatenate([x, x[mirror]]), np.concatenate([w, w[mirror]]), scale


def aw_integral_numeric(p, n_nodes=512):
    """(1/2 pi) int_0^pi w(e^{i theta}) d theta by the uniform trapezoid
    rule on the full circle (the integrand is analytic and periodic, so
    the rule is spectrally accurate).  Equals half the closed form."""
    _, w, scale = _midpoint_grid(p, n_nodes)
    return complex(np.sum(w)) * scale


def _z_of_x(x):
    """A root z of x = (z + 1/z)/2 (both give the same polynomial values):
    x - sqrt(x^2 - 1) where the real parts of x and the root have opposite
    signs, so that x + sqrt(x^2 - 1) would cancel (real x < -1), and
    x + sqrt(x^2 - 1) otherwise.  A real x in [-1, 1] has an imaginary
    root and takes the sum."""
    x = complex(x)
    root = cmath.sqrt(x * x - 1.0)
    return x - root if x.real * root.real < 0 else x + root


def _cqh_z(n, z, q):
    """Continuous q-Hermite polynomial in the variable z = e^{i theta}:

    H_n = sum_k (q;q)_n / ((q;q)_k (q;q)_{n-k}) z^{n-2k};

    inf once a power z^{n-2k} leaves the double range.
    """
    total = 0.0 + 0.0j
    qq = _qpoch_prefix(q, q, n)
    try:
        for k in range(n + 1):
            total += qq[n] / (qq[k] * qq[n - k]) * z ** (n - 2 * k)
    except OverflowError:
        return complex(math.inf)
    return total


def _aw_r(n, z, a, b, c, d, q):
    """r_n = 4phi3(q^{-n}, q^{n-1}abcd, az, a/z; ab, ac, ad; q, q) at the
    point x = (z + 1/z)/2, in terms of z."""
    abcd = a * b * c * d
    spec = SeriesSpec(
        [q ** float(-n), q ** float(n - 1) * abcd, a * z, a / z],
        [a * b, a * c, a * d],
        q,
        q,
    )
    return eval_phi(spec)


def _aw_poly_z(n, z, p):
    """p_n at the point x = (z + 1/z)/2, in terms of z.

    Series path: a^{-n}(ab,ac,ad;q)_n r_n after permuting a nonzero
    parameter to the front (p_n is symmetric in a,b,c,d).  All
    parameters zero reduces to continuous q-Hermite.
    """
    params = list(p.abcd)
    params.sort(key=lambda e: -abs(e))
    a, b, c, d = params
    q = p.q
    if a == 0:
        return _cqh_z(n, z, q)
    front = a ** float(-n) * qpoch_list([a * b, a * c, a * d], q, n)
    return front * _aw_r(n, z, a, b, c, d, q)


def aw_poly(n, x, p):
    """Askey-Wilson polynomial p_n(x; a,b,c,d | q), symmetric in the
    parameters, with leading coefficient k_n = 2^n (q^{n-1}abcd;q)_n.
    OutOfRangeError outside the double range."""
    return _double(_aw_poly_z(n, _z_of_x(x), p), "aw_poly")


def aw_poly_r(n, x, p):
    """The normalized 4phi3 r_n itself (value 1 at x = (a + 1/a)/2).
    Not symmetric in the parameters; requires a != 0."""
    if p.a == 0:
        raise DomainError("r_n needs a != 0")
    return _aw_r(n, _z_of_x(x), *p.abcd, p.q)


def aw_leading_coefficient(n, p):
    """k_n = 2^n (q^{n-1}abcd;q)_n."""
    a, b, c, d = p.abcd
    return 2.0**n * qpoch(p.q ** float(n - 1) * a * b * c * d, p.q, n)


def aw_norm(n, p):
    """Quadratic norm h_n = (1/2 pi) int_0^pi p_n^2 w d theta: entry n of
    aw_norms."""
    return aw_norms(n, p)[n]


def aw_norms(nmax, p):
    """The quadratic norms h_0..h_nmax in closed form,

    h_0 = (abcd;q)_oo / (q, ab, ac, ad, bc, bd, cd;q)_oo,
    h_n = h_0 (1-q^{n-1}abcd)(q,ab,ac,ad,bc,bd,cd;q)_n
              / ((1-q^{2n-1}abcd)(abcd;q)_n),

    with the infinite products formed once and each (e;q)_n read from one
    running product per parameter e."""
    h0 = _h0(p)
    a, b, c, d = p.abcd
    q = p.q
    abcd = a * b * c * d
    pairs = [_qpoch_prefix(e, q, nmax) for e in (q, a * b, a * c, a * d, b * c, b * d, c * d)]
    den = _qpoch_prefix(abcd, q, nmax)
    norms = []
    for n in range(nmax + 1):
        num = math.prod([run[n] for run in pairs], start=1.0 + 0.0j)  # qpoch_list's order
        ratio = (1.0 - q ** float(n - 1) * abcd) * num / ((1.0 - q ** float(2 * n - 1) * abcd) * den[n])
        norms.append(h0 * ratio)
    return norms


def aw_recurrence(n, p):
    """Coefficients (A_n, B_n, C_n) of 2x p_n = A_n p_{n+1} + B_n p_n
    + C_n p_{n-1}: row n of aw_recurrence_table."""
    rec = aw_recurrence_table(n + 1, p)
    return complex(rec.a[n]), complex(rec.b[n]), complex(rec.c[n])


def aw_recurrence_table(n, p):
    """The recurrence of p_0..p_n, 2x p_k = A_k p_{k+1} + B_k p_k
    + C_k p_{k-1} for k < n, as arrays over Q = q^k in one pass.

    KLS section 14.1 rescaled to the leading coefficient l_k = 2^k
    (q^{k-1}abcd;q)_k: A_k = 2 l_k/l_{k+1}, C_k = (2 l_{k-1}/l_k)(h_k/h_{k-1}),
    and B_k = a + 1/a minus KLS's A~_k + C~_k, which over a common
    denominator is symmetric and divides by no parameter.  With s = abcd,
    e1 = a+b+c+d, e3 = abc+abd+acd+bcd and r = Q/q:

    A_k = (1 - s r) / ((1 - s r Q)(1 - s Q^2)),
    B_k = Q (c0 + Q (c1 + Q c2)) / ((1 - s r^2)(1 - s Q^2)),
    C_k = (1 - Q) prod_{pairs ef} (1 - ef r) / ((1 - s r^2)(1 - s r Q)),

    with c0 = e1 + e3/q, c1 = -(1 + q)(e3 + s e1/q)/q and
    c2 = s (q e1 + e3)/q^2.  Row 0 is A_0 = 1/(1 - s),
    B_0 = (e1 - e3)/(1 - s), C_0 = 0, with the factors its formulas share
    at Q = 1 divided out.  At (a, b, 0, 0) every term in s and e3 is an
    exact zero, which leaves the Al-Salam-Chihara recurrence: A_k = 1,
    B_k = (a + b) Q, C_k = (1 - Q)(1 - ab r).
    """
    a, b, c, d = p.abcd
    q = p.q
    s, e1, e3 = a * b * c * d, a + b + c + d, a * b * (c + d) + c * d * (a + b)
    c0, c1, c2 = e1 + e3 / q, -(1.0 + q) * (e3 + s * e1 / q) / q, s * (q * e1 + e3) / (q * q)
    pairs = np.array([[a * b], [a * c], [a * d], [b * c], [b * d], [c * d]])
    A, B, C = np.zeros((3, n), dtype=complex)
    A[:1], B[:1] = 1.0 / (1.0 - s), (e1 - e3) / (1.0 - s)
    Q = q ** np.arange(1, n, dtype=float)
    r = Q / q
    sr = s * r
    low, mid, high = 1.0 - sr * r, 1.0 - sr * Q, 1.0 - s * Q * Q
    A[1:] = (1.0 - sr) / (mid * high)
    B[1:] = Q * (c0 + Q * (c1 + Q * c2)) / (low * high)
    C[1:] = (1.0 - Q) * np.prod(1.0 - pairs * r, axis=0) / (low * mid)
    return Recurrence(2.0, A, B, C)


def aw_poly_by_recurrence(n, x, p):
    """p_n through the three term recurrence; dual path to the series.
    OutOfRangeError once a value of the recurrence leaves the double range
    (p_n is then inf or NaN)."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = eval_all(aw_recurrence_table(n, p), x)
    return _double(complex(values[n, 0]), "aw_poly_by_recurrence")


def aw_qdifference_residual(n, z, p):
    """Residual of the eigenfunction equation of the Askey-Wilson
    q-difference operator, with A(z) = (1-az)(1-bz)(1-cz)(1-dz)
    / ((1-z^2)(1-qz^2)):

    A(z) P_n(qz) - (A(z)+A(1/z)) P_n(z) + A(1/z) P_n(z/q)
      + (1-q^{-n})(1-q^{n-1}abcd) P_n(z)

    where P_n(z) stands for p_n at x = (z + 1/z)/2.  Approximately zero.
    """
    q = p.q

    def big_a(w):
        den = (1.0 - w * w) * (1.0 - q * w * w)
        if den == 0:
            raise DomainError("singular point of the operator")
        num = 1.0 + 0.0j
        for e in p.abcd:
            num *= 1.0 - e * w
        return num / den

    a, b, c, d = p.abcd
    az, azi = big_a(z), big_a(1.0 / z)
    pq = _aw_poly_z(n, q * z, p)
    p0 = _aw_poly_z(n, z, p)
    pm = _aw_poly_z(n, z / q, p)
    eig = (1.0 - q ** float(-n)) * (1.0 - q ** float(n - 1) * a * b * c * d)
    return az * pq - (az + azi) * p0 + azi * pm + eig * p0


def continuous_q_hermite(n, x, q):
    """Continuous q-Hermite polynomial p_n(x; 0,0,0,0 | q), evaluated by
    its explicit Fourier sum; OutOfRangeError outside the double range."""
    check_q(q)
    return _double(_cqh_z(n, _z_of_x(_finite(x)), q), "continuous_q_hermite")


def q_ultraspherical(n, theta, beta, q, form="fourier"):
    """Rogers' q-ultraspherical polynomial C_n(cos theta; beta | q).

    form="fourier": sum_k ((beta;q)_k (beta;q)_{n-k}
                     / ((q;q)_k (q;q)_{n-k})) e^{i(n-2k) theta}
    form="phi":     ((beta^2;q)_n / (beta^{n/2} (q;q)_n)) *
                    4phi3(q^{-n}, q^n beta^2, beta^{1/2} e^{i theta},
                          beta^{1/2} e^{-i theta};
                          beta q^{1/2}, -beta q^{1/2}, -beta; q, q)
    form="aw":      the Askey-Wilson specialization
                    p_n(cos theta; b, b q^{1/2}, -b, -b q^{1/2} | q),
                    b = beta^{1/2}, times 2^n (beta;q)_n
                    / ((q;q)_n k_n^{AW}) obtained by matching leading
                    coefficients.

    OutOfRangeError when a term or the value lies outside the double
    range.
    """
    q = check_q(q)
    _finite(theta)
    _finite(beta)
    if form == "fourier":
        # the printed sum ((q^{-n},beta;q)_k/(q^{1-n}/beta,q;q)_k)(q/beta)^k
        # rewritten with k <-> n-k symmetric coefficients
        bb, qq = _qpoch_prefix(beta, q, n), _qpoch_prefix(q, q, n)
        total = 0.0 + 0.0j
        for k in range(n + 1):
            total += bb[k] * bb[n - k] / (qq[k] * qq[n - k]) * cmath.exp(1j * (n - 2 * k) * theta)
        return _double(total, "q_ultraspherical")
    if form == "phi":
        if beta == 0:
            raise DomainError("phi form needs beta != 0")
        rb = cmath.sqrt(beta)
        sq = math.sqrt(q)
        z = cmath.exp(1j * theta)
        body = eval_phi(
            SeriesSpec(
                [q ** float(-n), q ** float(n) * beta * beta, rb * z, rb / z],
                [beta * sq, -beta * sq, -beta],
                q,
                q,
            )
        )
        value = qpoch(beta * beta, q, n) / (rb ** float(n) * qpoch(q, q, n)) * body
        return _double(value, "q_ultraspherical")
    if form == "aw":
        rb = cmath.sqrt(beta)
        sq = math.sqrt(q)
        p = AWParams(rb, rb * sq, -rb, -rb * sq, q)
        const = (
            2.0**n
            * qpoch(beta, q, n)
            / (qpoch(q, q, n) * aw_leading_coefficient(n, p))
        )
        value = const * _aw_poly_z(n, _z_of_x(math.cos(theta)), p)
        return _double(value, "q_ultraspherical")
    raise DomainError(f"unknown form {form!r}")


# ---------------------------------------------------------------------------
# q-Racah


def _racah_check(alpha, beta, gamma, delta, big_n, q):
    """One of alpha q, beta delta q, gamma q must be q^{-N} under qcore's
    rule (_termination_degree)."""
    q = check_q(q)
    for v in (alpha * q, beta * delta * q, gamma * q):
        if _termination_degree(v, q) == big_n:
            return
    raise DomainError("one of alpha*q, beta*delta*q, gamma*q must be q^{-N}")


def q_racah(n, x, alpha, beta, gamma, delta, q, big_n):
    """q-Racah polynomial R_n(mu(x)):

    4phi3(q^{-n}, q^{n+1} alpha beta, q^{-x}, q^{x+1} gamma delta;
          alpha q, beta delta q, gamma q; q, q),   n, x = 0..N.

    n and x may be numpy arrays that broadcast, such as a column of degrees
    and a row of points; their values come from one walk, and with real
    parameters are the values at each (n, x) bit for bit.
    """
    q = check_q(q)
    _racah_check(alpha, beta, gamma, delta, big_n, q)
    for v in (n, x):
        low, high = (v.min(), v.max()) if isinstance(v, np.ndarray) else (v, v)
        if not (0 <= low and high <= big_n):
            raise DomainError("need 0 <= n, x <= N")
    spec = SeriesSpec(
        [
            _qpow(q, -n),
            _qpow(q, n + 1) * alpha * beta,
            _qpow(q, -x),
            _qpow(q, x + 1) * gamma * delta,
        ],
        [alpha * q, beta * delta * q, gamma * q],
        q,
        q,
    )
    return eval_phi(spec)


def _q_racah_table(alpha, beta, gamma, delta, q, big_n):
    """R_n(mu(x)) for n, x = 0..N in one walk, a column of degrees against
    the row of points x = 0..N."""
    x = np.arange(big_n + 1)
    return q_racah(x[:, None], x, alpha, beta, gamma, delta, q, big_n)


def _q_racah_solve(table):
    rhs = np.zeros(len(table), dtype=complex)
    rhs[0] = 1.0
    return np.linalg.solve(table, rhs)


def q_racah_weights(alpha, beta, gamma, delta, q, big_n):
    """Weights w(x) on x = 0..N derived numerically from the moment
    conditions sum_x R_n(mu(x)) w(x) = delta_{n,0}, n = 0..N.

    The orthogonality relation is stated without an explicit weight
    formula; the (N+1)x(N+1) linear solve stays within the printed
    contract and is exact up to conditioning.
    """
    _racah_check(alpha, beta, gamma, delta, big_n, q)
    return _q_racah_solve(_q_racah_table(alpha, beta, gamma, delta, q, big_n))


def q_racah_gram_matrix(nmax, alpha, beta, gamma, delta, q, big_n):
    """Gram matrix sum_x R_n(mu(x)) R_m(mu(x)) w(x), n, m = 0..nmax, with
    the derived weights: one moment solve, each R_n(mu(x)) evaluated once."""
    _racah_check(alpha, beta, gamma, delta, big_n, q)
    if not 0 <= nmax <= big_n:
        raise DomainError("need 0 <= nmax <= N")
    table = _q_racah_table(alpha, beta, gamma, delta, q, big_n)
    return gram(table[: nmax + 1], _q_racah_solve(table))


def aw_gram_quadrature(p, nmax, n_nodes=1024):
    """Matrix of quadrature inner products (1/2 pi) int_0^pi p_n p_m w
    d theta for n, m <= nmax, via the uniform grid on the full circle,
    with the values from the three term recurrence."""
    if nmax < 0:
        raise DomainError("degree must be nonnegative")
    x, w, scale = _midpoint_grid(p, n_nodes)
    return gram(eval_all(aw_recurrence_table(nmax, p), x), w) * scale
