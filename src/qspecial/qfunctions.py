"""Named q-special functions.

q-exponentials e_q, E_q, the q-gamma and q-beta functions, the theta
function theta4, the two Jackson q-Bessel functions plus the Hahn-Exton
one, and an exact integer partition-count oracle.
"""

import cmath
import math
from fractions import Fraction

from qspecial.errors import DomainError, OutOfRangeError
from qspecial.qcore import INFINITY, _double, check_q, qpoch, qpoch_inf_ratio
from qspecial.qseries import SeriesSpec, eval_phi, eval_psi


def e_q(z, q):
    """q-exponential e_q(z) = 1/(z;q)_oo = sum z^k/(q;q)_k for |z|<1."""
    return qpoch_inf_ratio([], [z], q)


def E_q(z, q):
    """q-exponential E_q(z) = (-z;q)_oo = sum q^{k(k-1)/2} z^k/(q;q)_k (entire)."""
    return qpoch(-complex(z), q, INFINITY)


def _is_pole(z):
    """True when z is (numerically) one of the poles 0, -1, -2, ... of Gamma_q."""
    if abs(z.imag) >= 1e-12:
        return False
    nearest = round(z.real)
    return nearest <= 0 and abs(z.real - nearest) < 1e-9


def _q_power(x, q, name):
    """q^x = exp(x log q); OutOfRangeError naming the function when q^x
    lies above the double range."""
    try:
        return cmath.exp(x * math.log(q))
    except OverflowError:
        raise OutOfRangeError(f"{name}: q^{x} outside the double range, q={q}") from None


def gamma_q(z, q):
    """q-gamma function (q;q)_oo (1-q)^{1-z} / (q^z;q)_oo.

    Satisfies Gamma_q(z+1) = (1-q^z)/(1-q) Gamma_q(z), Gamma_q(1) = 1.
    The two products share one peel and are combined as logs: each alone
    underflows as q -> 1 while their ratio stays of moderate size.
    DomainError at the poles z = 0, -1, -2, ..., where q^z is not an exact
    power of q in double and the vanishing factor would be missed;
    OutOfRangeError when q^z lies above the double range, where
    |Gamma_q(z)| lies far below it.
    """
    q = check_q(q)
    z = complex(z)
    if _is_pole(z):
        raise DomainError(f"Gamma_q pole at z = {z}")
    qz = _q_power(z, q, "Gamma_q")
    return qpoch_inf_ratio([q], [qz], q, (1.0 - z) * math.log1p(-q))


def gamma_q_reciprocal(z, q):
    """1/Gamma_q(z) with the pole convention: 0 at z = 0, -1, -2, ..."""
    z = complex(z)
    if _is_pole(z):
        return 0.0 + 0.0j
    return 1.0 / gamma_q(z, q)


def _power_qpoch(q, *terms):
    """(q^x;q)_oo, for x the sum of the complex terms, as (sign, exponent,
    upper, lower): sign q^exponent times the product of (u;q)_oo over
    upper over that of (l;q)_oo over lower.

    Where q^x is a double that is (1, (0, 0), [q^x], []).  Where q^x
    overflows, its first m = ceil(-Re x) factors are turned over,

        (q^x;q)_oo = (-1)^m q^{mx + m(m-1)/2} (q^{1-x-m}, q^{x+m};q)_oo
                     / (q^{1-x};q)_oo,

    with every power of q at most 1.  The exponent is the pair of its real
    and imaginary parts as exact Fractions, formed from the exact sum of
    the terms: the large exponents of several such products then cancel
    without rounding, and the rounding of x is not multiplied by m.
    """
    x = sum(terms[1:], terms[0])
    lq = math.log(q)
    try:
        return 1, (0, 0), [cmath.exp(x * lq)], []
    except OverflowError:
        pass
    m = math.ceil(-x.real)
    exponent = (
        m * sum(Fraction(t.real) for t in terms) + Fraction(m * (m - 1), 2),
        m * sum(Fraction(t.imag) for t in terms),
    )
    frac = x + m  # exact (Sterbenz), as m/2 <= -Re x <= m; 0 <= Re frac < 1
    upper = [cmath.exp((1.0 - frac) * lq), cmath.exp(frac * lq)]
    return (-1) ** m, exponent, upper, [cmath.exp((1.0 - x) * lq)]


def beta_q(a, b, q):
    """q-beta function (1-q)(q, q^{a+b};q)_oo / ((q^a, q^b;q)_oo).

    One qpoch_inf_ratio.  Where q^a, q^b or q^{a+b} overflows, each
    (q^x;q)_oo enters it as the quotient of _power_qpoch, so B_q is
    returned wherever it is a double.  DomainError when a or b is a pole
    of Gamma_q; OutOfRangeError when B_q lies outside the double range.
    """
    q = check_q(q)
    a, b = complex(a), complex(b)
    if _is_pole(a) or _is_pole(b):
        raise DomainError(f"B_q pole at a = {a}, b = {b}")
    lq = math.log(q)
    try:
        upper, lower = [q, cmath.exp((a + b) * lq)], [cmath.exp(a * lq), cmath.exp(b * lq)]
        sign, log_factor = 1, math.log1p(-q)
    except OverflowError:
        (s0, e0, up0, low0), (s1, e1, up1, low1), (s2, e2, up2, low2) = (
            _power_qpoch(q, a, b), _power_qpoch(q, a), _power_qpoch(q, b)
        )
        upper, lower = [q, *up0, *low1, *low2], [*low0, *up1, *up2]
        sign = s0 * s1 * s2
        exponent = complex(e0[0] - e1[0] - e2[0], e0[1] - e1[1] - e2[1])
        log_factor = math.log1p(-q) + exponent * lq
    try:
        value = qpoch_inf_ratio(upper, lower, q, log_factor)
    except OutOfRangeError as exc:
        raise OutOfRangeError(f"B_q({a}, {b}) with q={q}: {exc}") from None
    return -value if sign < 0 else value


def theta4(x, q):
    """theta_4(x;q) = (q^2, q e^{2 pi i x}, q e^{-2 pi i x}; q^2)_oo."""
    q = check_q(q)
    w = cmath.exp(2j * math.pi * x)
    q2 = q * q
    return qpoch_inf_ratio([q2, q * w, q / w], [], q2)


def theta4_series(x, q):
    """The Jacobi triple-product series sum_k (-1)^k q^{k^2} e^{2 pi i k x}
    of theta4, as the bilateral 0psi1(-; 0; q^2, q e^{2 pi i x}); a test
    cross-check of the product."""
    q = check_q(q)
    w = cmath.exp(2j * math.pi * x)
    return eval_psi(SeriesSpec([], [0], q * q, q * w))


def _bessel(nu, q, base, body, name):
    """(q^{nu+1};q)_oo / (q;q)_oo base^nu body.  Errors name the function:
    DomainError at base 0 for a nu of negative real part or nonzero
    imaginary part, OutOfRangeError when base^nu or the value is outside the
    double range."""
    try:
        power = base**nu
    except (OverflowError, ZeroDivisionError):
        # ZeroDivisionError: Python's power at base 0, or the inverse of an
        # integral nu's positive power that underflowed to 0
        if base == 0:
            raise DomainError(f"{name}: z = 0 is outside the domain for nu = {nu}") from None
        raise OutOfRangeError(f"{name}: value outside the double range") from None
    return _double(qpoch_inf_ratio([q ** (nu + 1.0)], [q], q) * power * body, name)


def jackson_bessel_1(nu, z, q):
    """First Jackson q-Bessel: prefactor (z/2)^nu 2phi1(0,0; q^{nu+1}; q, -z^2/4)."""
    q = check_q(q)
    z = complex(z)
    if abs(z) >= 2:
        raise DomainError("first Jackson q-Bessel requires |z| < 2")
    body = eval_phi(SeriesSpec([0, 0], [q ** (nu + 1.0)], q, -z * z / 4.0))
    return _bessel(nu, q, z / 2.0, body, "jackson_bessel_1")


def jackson_bessel_2(nu, z, q):
    """Second Jackson q-Bessel: prefactor (z/2)^nu 0phi1(-; q^{nu+1}; q, -q^{nu+1}z^2/4)."""
    q = check_q(q)
    z = complex(z)
    qnu = q ** (nu + 1.0)
    body = eval_phi(SeriesSpec([], [qnu], q, -qnu * z * z / 4.0))
    return _bessel(nu, q, z / 2.0, body, "jackson_bessel_2")


def hahn_exton_bessel(nu, z, q):
    """Hahn-Exton q-Bessel: prefactor z^nu 1phi1(0; q^{nu+1}; q, q z^2)."""
    q = check_q(q)
    z = complex(z)
    body = eval_phi(SeriesSpec([0], [q ** (nu + 1.0)], q, q * z * z))
    return _bessel(nu, q, z, body, "hahn_exton_bessel")


_partition_cache = [1]


def partition_count(n):
    """Number of partitions of n, exact integer via Euler's pentagonal recurrence:

    p(n) = sum_{k>=1} (-1)^{k-1} [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)].
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    if n > 10_000:
        raise DomainError("n capped at 10000")
    while len(_partition_cache) <= n:
        m = len(_partition_cache)
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * _partition_cache[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * _partition_cache[m - g2]
            k += 1
        _partition_cache.append(total)
    return _partition_cache[n]
