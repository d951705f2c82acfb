"""Named q-special functions.

q-exponentials e_q, E_q, the q-gamma and q-beta functions, the theta
function theta4, the two Jackson q-Bessel functions plus the Hahn-Exton
one, and an exact integer partition-count oracle.
"""

import cmath
import math
from fractions import Fraction

from qspecial.errors import DomainError, OutOfRangeError
from qspecial.qcore import INFINITY, _double, _finite, check_q, qpoch, qpoch_inf_ratio
from qspecial.qseries import SeriesSpec, eval_phi, eval_psi


def e_q(z, q):
    """q-exponential e_q(z) = 1/(z;q)_oo = sum z^k/(q;q)_k for |z|<1."""
    return qpoch_inf_ratio([], [z], q)


def E_q(z, q):
    """q-exponential E_q(z) = (-z;q)_oo = sum q^{k(k-1)/2} z^k/(q;q)_k (entire)."""
    return qpoch(-complex(z), q, INFINITY)


def gamma_q(z, q):
    """q-gamma function (q;q)_oo (1-q)^{1-z} / (q^z;q)_oo.

    Satisfies Gamma_q(z+1) = (1-q^z)/(1-q) Gamma_q(z), Gamma_q(1) = 1.
    One qpoch_inf_ratio over the parts of _power_qpoch: the products share
    one peel and are combined as logs (each alone underflows as q -> 1),
    and next to a pole the vanishing factor keeps its digits.  DomainError
    exactly at the poles z = 0, -1, -2, ...; OutOfRangeError, naming
    Gamma_q, where the value lies outside the double range.
    """
    q = check_q(q)
    z = _finite(z)
    return _power_ratio("Gamma_q", (z,), q, (1.0 - z) * math.log1p(-q), [], [(z,)])


def gamma_q_reciprocal(z, q):
    """1/Gamma_q(z); 0 exactly at the poles z = 0, -1, -2, ... that gamma_q refuses."""
    z = complex(z)
    if _at_pole(z):
        return 0.0 + 0.0j
    return 1.0 / gamma_q(z, q)


def _at_pole(z):
    """True when the complex z is a pole 0, -1, -2, ... of Gamma_q: exactly
    where _power_qpoch's s1 = z + ceil(-Re z) is 0."""
    return not z.imag and z.real <= 0 and z.real.is_integer()


def beta_q(a, b, q):
    """q-beta function (1-q)(q, q^{a+b};q)_oo / ((q^a, q^b;q)_oo).

    One qpoch_inf_ratio over the parts of _power_qpoch, as for gamma_q, so
    B_q is returned wherever it is a double, also where q^a, q^b or q^{a+b}
    lies above the double range.  DomainError exactly when a or b is a pole
    of Gamma_q; OutOfRangeError, naming B_q, outside the double range.
    """
    q = check_q(q)
    a, b = _finite(a), _finite(b)
    return _power_ratio("B_q", (a, b), q, math.log1p(-q), [(a, b)], [(a,), (b,)])


def _power_ratio(name, args, q, log_factor, upper, lower):
    """exp(log_factor) (q;q)_oo prod_upper (q^x;q)_oo / prod_lower (q^x;q)_oo,
    each x a tuple of complex terms to sum, as one qpoch_inf_ratio over the
    parts of _power_qpoch, exponents summed exactly.  Errors name the
    function: DomainError at a pole, OutOfRangeError outside the double range."""
    lq = math.log(q)
    num, den, sign, re, im = [q], [], 1, 0, 0
    try:
        for side, products in ((1, upper), (-1, lower)):
            for terms in products:
                x = sum(terms[1:], terms[0])
                if x.real >= 0.5:  # no turnover: (q^x;q)_oo itself
                    (num if side > 0 else den).append(cmath.exp(x * lq))
                    continue
                s, (e_re, e_im), peeled, up, low = _power_qpoch(lq, x, terms)
                num, den = (num + up, den + low) if side > 0 else (num + low, den + up)
                sign, re, im = sign * s, re + side * e_re, im + side * e_im
                log_factor += side * peeled
        if re or im:
            log_factor += complex(re * Fraction(lq), im * Fraction(lq))
        value = qpoch_inf_ratio(num, den, q, log_factor)
    except (DomainError, OverflowError, OutOfRangeError) as error:
        where = ", ".join(map(str, args))
        # an upper sum can overflow (B_q(a, b) with a + b below the double
        # range) before the pole of a lower product is reached
        if isinstance(error, DomainError) or any(_at_pole(sum(t[1:], t[0])) for t in lower):
            raise DomainError(f"{name}: pole at {where}, q={q}") from None
        raise OutOfRangeError(f"{name}: value outside the double range at {where}, q={q}") from None
    return value if sign > 0 else 0 - value  # not -value, which makes a 0 part -0


def _power_qpoch(lq, x, terms):
    """(q^x;q)_oo for Re x < 1/2, x the sum of the complex terms, lq = log q,
    as (sign, exponent, log_factor, upper, lower): sign q^exponent
    exp(log_factor) prod (u;q)_oo over upper / prod (l;q)_oo over lower.
    Its first m = max(0, ceil(-Re x)) factors are turned over,

        (q^x;q)_oo = (-1)^m q^{mx + m(m-1)/2} (q^{s1}, q^{s2};q)_oo
                     / (q^{1-x};q)_oo,   s1 = x + m,  s2 = (1 - m) - x

    (at m = 0 only s1 = x is left).  s1 and s2 are one subtraction each,
    exact next to a pole (Sterbenz).  At most one has real part below 1/2;
    the first factor of its product, -expm1(s log q), enters log_factor,
    and the rest is (q^{s+1};q)_oo.  So a factor next to 0 keeps its
    digits, and no power of q in the lists exceeds q^{1/2} in modulus but
    at a pole, s1 = 0 exactly: there (q^x;q)_oo is (1;q)_oo = 0, a zero or
    a pole by the rule of qpoch_inf_ratio.  The exponent is a pair of exact
    Fractions from the exact terms, so the large exponents of several
    products cancel exactly and the rounding of x is not multiplied by m.
    """
    m = max(0, math.ceil(-x.real))
    powers = [x + m, (1 - m) - x] if m else [x]
    if not powers[0]:
        return 1, (0, 0), 0, [1.0], []
    exponent = (
        m * sum(Fraction(t.real) for t in terms) + Fraction(m * (m - 1), 2),
        m * sum(Fraction(t.imag) for t in terms),
    ) if m else (0, 0)
    log_factor = 0
    for i, s in enumerate(powers):
        if s.real < 0.5:
            # 1 - q^s, as e^{a+ib} - 1 = expm1(a) cos b - 2 sin^2(b/2) + i e^a sin b
            a, b = s.real * lq, s.imag * lq
            re_part = 2.0 * math.sin(b / 2) ** 2 - math.expm1(a) * math.cos(b)
            log_factor = cmath.log(complex(re_part, -math.exp(a) * math.sin(b)))
            powers[i] = s + 1
    lower = [cmath.exp((1 - x) * lq)] if m else []
    return (-1) ** m, exponent, log_factor, [cmath.exp(s * lq) for s in powers], lower


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
