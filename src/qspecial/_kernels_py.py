"""Pure-Python twins of the compiled kernels.

Same call signatures and semantics as the compiled extension
``_kernels`` (hand-written C, ``_kernels.c``); selected automatically when
the extension is unavailable.  Status codes: 0 ok, 1 convergence budget
exhausted, 2 zero denominator factor, 3 a term outside the double range.
The products take a counted number of factors and have no stopping rule
of their own: the truncated (a;q)_oo is qpoch_finite with a count qcore
sets before the walk.

A walk or product whose inputs are all real runs the same loop on
floats, chosen at entry, and still returns a complex: on finite values
the complex loop gives the same real parts, as multiplying or dividing
by an imaginary part of 0 is exact.  phi_sum forms the full term ratio
until, in a real tail walk with no (-q^k) power, every factor 1 - p q^k
rounds to 1; from there the ratio is z, and it multiplies by z alone.
"""

import math

BACKEND = "python"


def qpoch_finite(a, q, k):
    """Finite product prod_{j=0}^{k-1} (1 - a q^j) for k >= 0, on floats
    when a is real."""
    f = complex(a)
    if not f.imag:
        f = f.real
    out = 1.0
    for _ in range(k):
        out *= 1.0 - f
        f *= q
    return complex(out)


def qpoch_negative(a, q, k):
    """1 / prod_{j=1}^{k} (1 - a q^{-j}) for k >= 1; status 2 on a zero
    factor, however many factors follow it.  With no zero factor, a
    denominator outside the double range gives status 0 and a value that
    is no normal double: 0 or NaN when it overflows, inf + nan j when
    it underflows."""
    den = 1.0 + 0.0j
    f = complex(a)
    for _ in range(k):
        f /= q
        g = 1.0 - f
        if g == 0:
            return 0j, 2
        den *= g
    return (1.0 / den if den else complex(math.inf, math.nan)), 0


def _geometric_cut(upper, lower, q):
    """The q^k at and below which every factor 1 - p q^k of a walk with
    real parameters rounds to exactly 1; NaN, which no q^k is at or below,
    unless q >= 0.

    With big the largest |p|, q^k <= 2^-54 / big (1 - 2^-50) gives
    fl(|p| q^k) <= 2^-54, and 1 -/+ 2^-54 rounds to 1.  The margin
    (1 - 2^-50) covers the two roundings of the cut itself while it is a
    normal double, so a big above 2^900 never switches.
    """
    if not q >= 0:
        return math.nan
    big = max(map(abs, (*upper, *lower)), default=0.0)
    if big > 2.0**900:
        return math.nan
    return 2.0**-54 / big * (1 - 2.0**-50) if big else math.inf


def phi_sum(upper, lower, q, z, sign_power, n_terms, tail_epsilon, max_terms):
    """Sum a series from t_0 = 1 by forward term-ratio recurrence.

    term_{k+1}/term_k = prod(1 - a_i q^k) / prod(1 - b_j q^k)
                        * ((-1) q^k)^sign_power * z,

    so an r_phi_s passes q as its first lower parameter, for (q;q)_k.

    n_terms >= 0 sums exactly k = 0..n_terms (terminating); n_terms < 0
    runs until 5 consecutive terms are below tail_epsilon relative to the
    running magnitude.  Returns (value, status, sum |t_k|), the last over
    the terms summed, t_0 = 1 included.  A term that is not a finite
    double (it overflowed, or an overflow made it NaN), or whose modulus
    is not, stops the walk with status 3 before it is summed.  The test
    runs only when a term does not fall below the running maximum, so a
    converging walk does not pay for it; Python raises OverflowError for
    the modulus of such a complex term, and for a negative power
    (-q^k)^e past the double range, where C gives inf.

    When z and every parameter are real the walk runs on floats.  In a
    real tail walk with sign_power 0, once q^k is at most _geometric_cut
    every factor 1 - p q^k is exactly 1, so the ratio is z and the term
    is multiplied by z alone: the same bits as the full ratio for finite
    terms.  Every other walk forms the full ratio at every term.
    """
    z = complex(z)
    tail = n_terms < 0
    cut = math.nan
    if not z.imag:
        real_upper = [a.real for a in upper if not a.imag]
        real_lower = [b.real for b in lower if not b.imag]
        if len(real_upper) == len(upper) and len(real_lower) == len(lower):
            z, upper, lower = z.real, real_upper, real_lower
            if tail and not sign_power:
                cut = _geometric_cut(upper, lower, q)
    total = term = mass = scale = qk = 1.0
    quiet = 0
    status = 1 if tail else 0
    try:
        for _ in range(max_terms if tail else n_terms):
            if qk <= cut:
                term = term * z
            else:
                num = z
                for a in upper:
                    num *= 1.0 - a * qk
                den = 1.0
                for b in lower:
                    den *= 1.0 - b * qk
                if den == 0:
                    status = 2
                    break
                if sign_power:
                    num *= (-qk) ** sign_power
                term = term * num / den
                qk *= q
            t = abs(term)
            if not t <= scale:
                if not t < math.inf:
                    status = 3
                    break
                scale = t
            total += term
            mass += t
            if tail:
                if t < tail_epsilon * scale:
                    quiet += 1
                    if quiet >= 5:
                        status = 0
                        break
                else:
                    quiet = 0
    except OverflowError:
        status = 3
    return complex(total), status, mass
