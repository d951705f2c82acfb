"""50-digit mpmath oracle for log (a;q)_oo, shared by the tests.

Nothing here comes from qspecial: the factors are multiplied and the log
series summed in mpmath, from the exact images of the double inputs.
"""

import math

import mpmath

EPS = 2.0**-52


def log_qpoch_oracle(a, q):
    """(log (a;q)_oo at 50 digits, size of the logs combined).

    Factors with |a q^j| > 1/2 are multiplied in mpmath, whose exponent
    range is unbounded; the rest is -sum_k b^k / (k (1 - q^k)).  The size
    adds |log f| and the conditioning |a q^j / f| of each peeled factor f
    and |t| of each series term t: a double evaluation of the log errs by
    about EPS times it.
    """
    with mpmath.workdps(50):
        a, q = mpmath.mpmathify(a), mpmath.mpf(q)
        head, size = mpmath.mpf(1), 0.0
        while abs(a) > 0.5:
            f = 1 - a
            if f == 0:
                return complex(-math.inf), size
            head *= f
            size += abs(math.log(float(abs(f)))) + float(abs(a / f))
            a *= q
        total, power, k = mpmath.mpf(0), a, 1
        while abs(power) > mpmath.mpf(10) ** -55:
            t = power / (k * (1 - q**k))
            total -= t
            size += float(abs(t))
            power *= a
            k += 1
        return mpmath.log(head) + total, size


def log_distance(value, ref):
    """|value - ref| for logs, with the imaginary parts compared mod 2 pi."""
    with mpmath.workdps(50):
        d_im = (mpmath.mpf(value.imag) - mpmath.im(ref) + mpmath.pi) % (2 * mpmath.pi)
        return max(abs(value.real - float(mpmath.re(ref))), float(abs(d_im - mpmath.pi)))
