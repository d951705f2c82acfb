"""50-digit mpmath oracles for log (a;q)_oo and the bilateral psi
series, shared by the tests.

Nothing here comes from qspecial: the factors are multiplied and the
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
        # q^k and |b^k| as running products, so no term takes a power or a
        # complex abs; the series ends once |b^k| <= 1e-55
        total, power, k = mpmath.mpf(0), a, 1
        qk, modulus, step = q, abs(a), abs(a)
        bound = mpmath.mpf(10) ** -55
        while modulus > bound:
            d = k * (1 - qk)
            total -= power / d
            size += float(modulus / abs(d))
            power *= a
            modulus *= step
            qk *= q
            k += 1
        return mpmath.log(head) + total, size


def log_distance(value, ref):
    """|value - ref| for logs, with the imaginary parts compared mod 2 pi."""
    with mpmath.workdps(50):
        d_im = (mpmath.mpf(value.imag) - mpmath.im(ref) + mpmath.pi) % (2 * mpmath.pi)
        return max(abs(value.real - float(mpmath.re(ref))), float(abs(d_im - mpmath.pi)))


def psi_oracle(upper, lower, q, z, max_terms=20000):
    """(r_psi_s(upper; lower; q, z) at 50 digits, sum |t_k|) as complex, float.

    Each half runs from t_0 = 1 by the term ratio
    t_{k+1} / t_k = z prod(1 - a q^k) / prod(1 - b q^k) (-q^k)^(s-r),
    inverted for k < 0 with q^k formed as it stands (mpmath's exponent
    range is unbounded).  A half ends once its ratio has modulus below 1
    and its term is below 1e-55 times the largest term; the input must lie
    in the convergence annulus, off the poles.
    """
    with mpmath.workdps(50):
        q, z = mpmath.mpf(q), mpmath.mpmathify(z)
        upper = [mpmath.mpmathify(a) for a in upper]
        lower = [mpmath.mpmathify(b) for b in lower]
        power = len(lower) - len(upper)

        def ratio(k):
            qk = q**k
            num = z * (-qk) ** power
            for a in upper:
                num *= 1 - a * qk
            den = mpmath.mpf(1)
            for b in lower:
                den *= 1 - b * qk
            return num / den

        total, mass = mpmath.mpf(1), mpmath.mpf(1)
        for step in (1, -1):
            term, top, k = mpmath.mpf(1), mpmath.mpf(1), 0
            for _ in range(max_terms):
                f = ratio(k) if step == 1 else 1 / ratio(k - 1)
                term *= f
                total += term
                mass += abs(term)
                top = max(top, abs(term))
                if abs(f) < 1 and abs(term) < mpmath.mpf(10) ** -55 * top:
                    break
                k += step
            else:
                raise RuntimeError("psi oracle: a half did not end within max_terms")
        return complex(total), float(mass)


def log_qfactorials(q, n):
    """[log (q;q)_i for i = 0..n] at 50 digits, from the exact image of
    the double q, for qbinomial_oracle."""
    with mpmath.workdps(50):
        q = mpmath.mpf(q)
        logs, power = [mpmath.mpf(0)], mpmath.mpf(1)
        for _ in range(n):
            power *= q
            logs.append(logs[-1] + mpmath.log(1 - power))
        return logs


def qbinomial_oracle(logs, n, k):
    """(log [n k]_q, [n k]_q) as floats, 0 <= k <= n, from
    logs = log_qfactorials(q, N), N >= n; the value is inf above the
    double range."""
    with mpmath.workdps(50):
        log_value = logs[n] - logs[k] - logs[n - k]
        value = mpmath.exp(log_value) if log_value < 710 else mpmath.inf
        return float(log_value), float(value)
