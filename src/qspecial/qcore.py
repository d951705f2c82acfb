"""Base-q conventions: q validation, the tail rule, q-shifted factorials.

The q-shifted factorial (a;q)_k is the building block for everything else:

    (a;q)_k = prod_{j=0}^{k-1} (1 - a q^j)            k >= 0
    (a;q)_k = 1 / prod_{j=1}^{|k|} (1 - a q^{-j})      k < 0
    (a;q)_oo = prod_{j>=0} (1 - a q^j)                 product or log series

Throughout the package the base satisfies 0 < q < 1.  Every product or
quotient of (a;q)_oo in one base is qpoch_inf_ratio: kernel products when
each needs few factors, else one exp of a sum of log_qpoch_inf series.

Every infinite series and product is truncated by one rule, with fixed
constants: a series ends after QUIET_TERMS consecutive terms below
TAIL_EPSILON times its largest |term|, and raises ConvergenceError after
MAX_TERMS terms; a truncated (a;q)_oo leaves out a tail below TAIL_EPSILON.

A parameter a is q^{-n} by one rule (_termination_degree): a is real and
within 8 (n + 1) ulps of q ** float(-n), the rounding of forming q^{-n},
for some 0 <= n <= 10 000.  Then (a;q)_oo and (a;q)_k, k > n, vanish, and a
series with a as an upper parameter terminates at degree n (Gasper-Rahman
1990, Sec. 1.2-1.3).  Every product asks the rule once, before any
arithmetic: an upper q^{-n} gives 0 (a log of -inf), a lower one a pole.
"""

import cmath
import math
import sys

import numpy as np

from qspecial import kernels
from qspecial.errors import ConvergenceError, DomainError, OutOfRangeError

INFINITY = "oo"

# (a;q)_oo is the kernel product while that needs at most this many factors,
# log(TAIL_EPSILON (1-q)/|a|)/log q, and the log series beyond: where the two
# timings cross (Python), or where a longer product would round past 64 eps (C)
_SERIES_FROM = {"python": 80, "c": 1000}[kernels.BACKEND]
# the log series starts once |a q^j| <= _PEEL; earlier factors are peeled off
_PEEL = 0.5
# peeled factors are summed in numpy blocks of about this many factors (64 kB
# of complex temporaries, reused by malloc), and a peel longer than _MAX_PEEL
# (q within about 1e-7 of 1) raises ConvergenceError
_BLOCK = 4096
_MAX_PEEL = 10**7
# the smallest normal and the largest double, and their logs
_MIN_NORMAL, _MAX_DOUBLE = sys.float_info.min, sys.float_info.max
_LOG_MIN, _LOG_MAX = math.log(_MIN_NORMAL), math.log(_MAX_DOUBLE)

# the constants of the tail rule (module docstring)
TAIL_EPSILON = 1e-16
MAX_TERMS = 100_000
QUIET_TERMS = 5

# q^{-n} formed as a pow, a product or quotient of powers, or numpy's power
# over nodes lies a few ulps from q ** float(-n): 8 (n + 1) ulps hold every
# catalog and Gram spec, while a relative 1e-12 cut off 32 (1 + 1e-13) at
# q = 1/2, a series that does not terminate, after 6 terms.
_SNAP_ULPS = 8
_MAX_TERMINATION_N = 10_000
_NO_DEGREE = _MAX_TERMINATION_N + 1  # the degree of a parameter that is no q^{-n}
_BELOW_ONE = 1.0 - _SNAP_ULPS * math.ulp(1.0)  # below it no parameter is q^{-n}, n >= 0


def tail_sum(terms, message, max_terms=MAX_TERMS):
    """Sum an iterator of terms under the tail rule.

    The sum stops once QUIET_TERMS consecutive terms are each below
    TAIL_EPSILON times the running maximum |term| (floored at 1e-300).
    An iterator that ends gives an exact sum.
    Returns (sum, sum of |term|, running maximum); ConvergenceError(message)
    when max_terms terms pass without the rule being met.
    """
    scale, bound = 0.0, TAIL_EPSILON * 1e-300
    total, mass, quiet = 0j, 0.0, 0
    for count, term in enumerate(terms, 1):
        total += term
        t = abs(term)
        mass += t
        if t > scale:
            scale = t
            bound = TAIL_EPSILON * max(scale, 1e-300)
        if t < bound:
            quiet += 1
            if quiet == QUIET_TERMS:
                break
        else:
            quiet = 0
        if count == max_terms:
            raise ConvergenceError(message)
    return total, mass, scale


def check_q(q):
    """Validate the base; returns q as float. Requires 0 < q < 1."""
    q = float(q)
    if not 0.0 < q < 1.0:
        raise DomainError(f"base q must satisfy 0 < q < 1, got {q}")
    return q


def _termination_degree(a, q):
    """n when the number a is real and within _SNAP_ULPS (n + 1) ulps of
    q ** float(-n), 0 <= n <= _MAX_TERMINATION_N; else _NO_DEGREE."""
    x = a.real
    if a.imag or x < _BELOW_ONE:
        return _NO_DEGREE
    n = round(math.log(x) / -math.log(q))
    if not 0 <= n <= _MAX_TERMINATION_N:
        return _NO_DEGREE
    try:
        power = q ** float(-n)
    except OverflowError:  # x within half a power of q of the largest double
        return _NO_DEGREE
    return n if abs(x - power) <= _SNAP_ULPS * (n + 1) * math.ulp(power) else _NO_DEGREE


def _finite(a):
    """a as a complex number; DomainError when it is NaN or infinite."""
    a = complex(a)
    if not cmath.isfinite(a):
        raise DomainError(f"argument must be finite, got {a}")
    return a


def _qpow(q, e):
    """q ** float(e); for an array e, an array with Python's pow taken at
    each entry, since numpy's power on an array can round apart from it in
    the last bit.  A table over a column of degrees and a row of nodes so
    holds each entry's point bits."""
    if isinstance(e, np.ndarray):
        return np.array([q ** float(v) for v in e.ravel().tolist()]).reshape(e.shape)
    return q ** float(e)


def _in_range(value):
    """True when |value| is a normal double (so not 0, inf or NaN)."""
    return _MIN_NORMAL <= abs(value) <= _MAX_DOUBLE


def _double(value, name):
    """value; OutOfRangeError naming the function when a term or the value
    left the double range (it is inf or NaN, or a power overflowed)."""
    if not cmath.isfinite(value):
        raise OutOfRangeError(f"{name}: value outside the double range")
    return value


def _factor_count(a, q):
    """The number n of factors of the kernel product (a;q)_oo,
    qpoch_finite(a, q, n): the index of the first j with
    |a| q^j < TAIL_EPSILON (1 - q), plus 2, so that the tail left out,
    at most that bound over 1 - q, is below TAIL_EPSILON.  None when
    |a| q^_SERIES_FROM is above the bound, where the log series is the
    cheaper path.

    The +2 keeps two factors below the bound.  1 - a q^j can still round
    away from 1 there (for complex a its imaginary part always shows), and
    with those two factors every value is, bit for bit, the one a product
    stopping at the third factor below the bound gives.
    """
    eps = TAIL_EPSILON * (1.0 - q)
    mag = abs(a)
    if mag * q**_SERIES_FROM > eps:
        return None
    if mag < eps:
        return 2
    return math.floor((math.log(eps) - math.log(mag)) / math.log(q)) + 3


def _log_head(alist, lq, n):
    """sum_{j<n} log(1 - a q^j) for each a of alist: a loop for short
    peels, numpy blocks otherwise.  -inf when a factor vanishes."""
    if n * len(alist) <= 32:
        qj = [math.exp(lq * j) for j in range(n)]
        out = []
        for a in alist:
            total = 0j
            for x in qj:
                f = 1.0 - a * x
                if f == 0:
                    total = complex(-math.inf)
                    break
                total += cmath.log(f)
            out.append(total)
        return out
    out = np.zeros(len(alist), dtype=complex)
    a = np.array(alist, dtype=complex)[:, None]
    block = max(1, _BLOCK // (len(alist) or 1))
    with np.errstate(divide="ignore"):
        for start in range(0, n, block):
            f = a * np.exp(lq * np.arange(start, min(start + block, n)))
            np.subtract(1.0, f, out=f)
            out += np.log(f, out=f).sum(axis=1)
    return [complex(v) for v in out]


def _log_tail(b, lq):
    """log (b;q)_oo = -sum_{k>=1} b^k / (k (1 - q^k)) for |b| <= 1/2.

    The terms shrink at least by |b|, so the tail after a term t is below
    |t| |b| / (1 - |b|); the sum stops when that is below TAIL_EPSILON.
    """
    if b.imag == 0:
        b = b.real
    r = abs(b)
    if r == 0:
        return 0.0
    stop = TAIL_EPSILON * (1.0 - r) / r
    total, power, k = 0.0, b, 1
    while True:
        t = power / (k * -math.expm1(k * lq))
        total -= t
        if abs(t) < stop:
            return total
        power *= b
        k += 1


def _peel_length(top, lq):
    """The number n of factors with |a q^j| > _PEEL, |a| = top, that log (a;q)_oo
    peels off as logs before its series in a q^n; ConvergenceError beyond _MAX_PEEL."""
    if top <= _PEEL:
        return 0
    # log(top / _PEEL), also where the quotient itself would overflow
    span = math.log(top / _PEEL) if top <= _MAX_DOUBLE * _PEEL else math.log(top) - math.log(_PEEL)
    n = math.ceil(span / -lq)
    if n > _MAX_PEEL:
        raise ConvergenceError(f"(a;q)_oo would peel {n} factors, more than {_MAX_PEEL}")
    return n


def _log_qpochs(alist, q):
    """log (a;q)_oo for each a of a list, with one peel length n for all.

    The factors with |a q^j| > 1/2 (j < n) are peeled off and their logs
    summed, so no partial product can underflow.  What is left, (b;q)_oo
    with b = a q^n and |b| <= 1/2, is the log of the q-binomial theorem
    (Gasper-Rahman 1990, Sec. 1.3).
    """
    lq = math.log(q)
    n = _peel_length(max(abs(a) for a in alist), lq)
    qn = math.exp(lq * n)
    heads = _log_head(alist, lq, n) if n else [0j] * len(alist)
    return [h + _log_tail(a * qn, lq) for h, a in zip(heads, alist)]


def log_qpoch_inf(a, q):
    """log (a;q)_oo for every 0 < q < 1, by the peeled log series.

    Factors with |a q^j| > 1/2 are peeled off in log form; the rest is
    -sum_k b^k / (k (1 - q^k)), summed until its tail is below
    TAIL_EPSILON.  The real part is log|(a;q)_oo|, the imaginary part a
    branch of its argument; -inf when a factor vanishes, that is when a
    is q^{-n} under the rule (module docstring).
    """
    q = check_q(q)
    a = _finite(a)
    if _termination_degree(a, q) != _NO_DEGREE:
        return complex(-math.inf)
    return _log_qpochs([a], q)[0]


def _exp_log(log_value, real=False):
    """exp(log_value) as a double.

    0 when the real part is -inf (a vanishing factor); OutOfRangeError,
    naming log|value|, when the value lies outside the normal double range.
    real drops the rounding residue of the phase of a value known to be
    real.
    """
    x = log_value.real
    if x == -math.inf:
        return 0j
    if not _LOG_MIN <= x <= _LOG_MAX:
        raise OutOfRangeError(f"value outside the double range: log|value| = {x:.6g}")
    value = cmath.rect(math.exp(x), log_value.imag)
    return complex(value.real) if real else value


def qpoch(a, q, k):
    """q-shifted factorial (a;q)_k.

    k may be any integer or the sentinel INFINITY.  Negative k uses the
    closed reciprocal product; INFINITY is qpoch_inf_ratio([a], [], q),
    which also forms every quotient of such products.  A value outside the
    double range raises OutOfRangeError.  (a;q)_oo and (a;q)_k, k > n, are
    0 when a is q^{-n} under the rule (module docstring).
    """
    q = check_q(q)
    a = _finite(a)
    if k == INFINITY:
        return _inf_ratio([a], [], q, 0j)
    k = int(k)
    if k >= 0:
        n = _termination_degree(a, q)
        if n != _NO_DEGREE and k > n:
            return 0j
        value = kernels.qpoch_finite(a, q, k)
        if not cmath.isfinite(value):
            raise OutOfRangeError(f"(a;q)_{k} outside the double range, a={a}")
        return value
    value, status = kernels.qpoch_negative(a, q, -k)
    if status:
        raise DomainError(f"(a;q)_{k} undefined: zero denominator factor, a={a}")
    if not _in_range(value):
        raise OutOfRangeError(f"(a;q)_{k} outside the double range, a={a}")
    return value


def _qpoch_prefix(a, q, n):
    """[(a;q)_k for k = 0..n] from one running product, each value equal
    to qpoch(a, q, k): the kernel's factors in the kernel's order, on
    floats when a is real, 0 above the rule's degree of a.  OutOfRangeError
    names the first k outside the double range, as qpoch(a, q, k) would; a
    product that has left the range never returns to it, so the last tells."""
    q = check_q(q)
    a = _finite(a)
    degree = _termination_degree(a, q)
    m = n if degree == _NO_DEGREE else min(n, degree)
    f = a if a.imag else a.real
    out = 1.0
    values = [1.0 + 0.0j]
    for _ in range(m):
        out *= 1.0 - f
        f *= q
        values.append(complex(out))
    values += [0j] * (n - m)
    if not cmath.isfinite(values[m]):
        k = next(k for k, v in enumerate(values) if not cmath.isfinite(v))
        raise OutOfRangeError(f"(a;q)_{k} outside the double range, a={a}")
    return values


def qpoch_list(alist, q, k):
    """Product of (a;q)_k over a list of parameters; empty list gives 1.
    Each factor is rounded on its own: a product or quotient of (a;q)_oo
    factors is one qpoch_inf_ratio."""
    out = 1.0 + 0.0j
    for a in alist:
        out *= qpoch(a, q, k)
    return out


def qpoch_inf_ratio(upper, lower, q, log_factor=0.0):
    """exp(log_factor) prod_u (u;q)_oo / prod_l (l;q)_oo.

    Kernel products when every factor needs few factors and the parts are
    in range; otherwise one exp of a sum of logs, so that no partial
    product underflows or overflows.  The rule (module docstring) decides
    zeros and poles before any arithmetic: a lower parameter q^{-n} is a
    pole, DomainError, also where an upper one is q^{-m} (a 0/0); else an
    upper parameter q^{-n} gives 0.  OutOfRangeError when the value is
    outside the double range.
    """
    q = check_q(q)
    upper = [_finite(a) for a in upper]
    lower = [_finite(a) for a in lower]
    return _inf_ratio(upper, lower, q, complex(log_factor))


def _inf_ratio(upper, lower, q, log_factor):
    """qpoch_inf_ratio on validated arguments: lists of finite complex
    numbers, q a float in (0, 1) and a complex log_factor."""
    for a in lower:
        if _termination_degree(a, q) != _NO_DEGREE:
            raise DomainError(f"pole: ({a};q)_oo = 0 in a denominator")
    for a in upper:
        if _termination_degree(a, q) != _NO_DEGREE:
            return 0j
    if _LOG_MIN <= log_factor.real <= _LOG_MAX:
        num = _kernel_product(upper, q, cmath.exp(log_factor))
        den = None if num is None else _kernel_product(lower, q, 1.0 + 0.0j)
        if den is not None and _in_range(num) and _in_range(den) and _in_range(num / den):
            return num / den
    params = upper + lower
    logs = _log_qpochs(params, q)
    total = sum(logs[: len(upper)], log_factor)
    if lower:
        bottom = logs[len(upper) :]
        for a, la in zip(lower, bottom):
            if la.real == -math.inf:
                raise DomainError(f"pole: ({a};q)_oo = 0 in a denominator")
        total -= sum(bottom, 0j)
    real = log_factor.imag == 0 and not any([a.imag for a in params])
    return _exp_log(total, real)


def _kernel_product(alist, q, value):
    """value times the kernel product (a;q)_oo of each a of alist, over its
    _factor_count factors; None when some a needs the log series."""
    for a in alist:
        n = _factor_count(a, q)
        if n is None:
            return None
        value *= kernels.qpoch_finite(a, q, n)
    return value


def qbinomial(n, k, q):
    """q-binomial coefficient [n k]_q; 0 outside 0 <= k <= n.

    One running product of the min(k, n - k) ratios
    (1 - q^{n-m+j}) / (1 - q^j), m = min(k, n - k), each 1 - q^i formed as
    -expm1(i log q), so no (q;q)_n underflows.  The ratios are at least 1,
    so a product that overflows is a value above the double range:
    OutOfRangeError.
    """
    q = check_q(q)
    if n < 0:
        raise DomainError("n must be nonnegative")
    if k < 0 or k > n:
        return 0.0
    m = min(k, n - k)
    lq = math.log(q)
    out = 1.0
    for j in range(1, m + 1):
        out *= math.expm1((n - m + j) * lq) / math.expm1(j * lq)
    if out == math.inf:
        raise OutOfRangeError(f"[{n} {k}]_q outside the double range, q={q}")
    return out


def qpoch_base_inverted(a, q, k):
    """(a;q^{-1})_k = prod_{j=0}^{k-1} (1 - a q^{-j}), via the closed rewrite
    (-1)^k a^k q^{-k(k-1)/2} (a^{-1};q)_k.

    When (a^{-1};q)_k or the rewrite is not a normal double, the direct
    product (1 - a) / qpoch_negative(a, q, k - 1) decides, on that path
    only: 0 when a factor 1 - a q^{-j} is exactly 0, as for (a;q)_oo, and
    OutOfRangeError when the value lies outside the double range."""
    q = check_q(q)
    k = int(k)
    if k < 0:
        raise DomainError("k must be nonnegative")
    if k == 0:
        return 1.0 + 0.0j
    a = complex(a)
    if a == 0:
        raise DomainError("a must be nonzero for k > 0")
    sign = -1.0 if k % 2 else 1.0
    rest = kernels.qpoch_finite(1.0 / a, q, k)
    if _in_range(rest):
        try:
            value = sign * a**k * q ** (-k * (k - 1) / 2) * rest
        except OverflowError:
            value = math.inf
        if _in_range(value):
            return value
    inverse, status = kernels.qpoch_negative(a, q, k - 1)
    if status or a == 1:
        return 0j
    if not (_in_range(inverse) and _in_range((1.0 - a) / inverse)):
        raise OutOfRangeError(f"(a;q^-1)_{k} outside the double range, a={a}")
    return (1.0 - a) / inverse


def shifted_factorial(a, k):
    """Classical Pochhammer symbol (a)_k = a(a+1)...(a+k-1);
    OutOfRangeError when the product leaves the double range."""
    if k < 0:
        raise DomainError("k must be nonnegative")
    out = 1.0 + 0.0j if isinstance(a, complex) else 1.0
    for j in range(int(k)):
        out *= a + j
    if not cmath.isfinite(out):
        raise OutOfRangeError(f"({a})_{k} outside the double range")
    return out
