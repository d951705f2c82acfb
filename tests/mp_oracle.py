"""50-digit mpmath oracles for log (a;q)_oo, the bilateral psi series
and the Askey-Wilson and big q-Jacobi recurrence coefficients, and a
60-digit Gamma_q next to its poles, shared by the tests.

Nothing here comes from qspecial: the factors are multiplied and the
series summed in mpmath, from the exact images of the double inputs.
"""

import math

import mpmath

EPS = 2.0**-52


def log_qpoch_oracle(a, q, dps=50):
    """(log (a;q)_oo at dps digits, size of the logs combined).

    Factors with |a q^j| > 1/2 are multiplied in mpmath, whose exponent
    range is unbounded; the rest is -sum_k b^k / (k (1 - q^k)).  The size
    adds |log f| and the conditioning |a q^j / f| of each peeled factor f
    and |t| of each series term t: a double evaluation of the log errs by
    about EPS times it.
    """
    with mpmath.workdps(dps):
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
        # complex abs; the series ends once |b^k| <= 10^-(dps + 5)
        total, power, k = mpmath.mpf(0), a, 1
        qk, modulus, step = q, abs(a), abs(a)
        bound = mpmath.mpf(10) ** -(dps + 5)
        while modulus > bound:
            d = k * (1 - qk)
            total -= power / d
            size += float(modulus / abs(d))
            power *= a
            modulus *= step
            qk *= q
            k += 1
        return mpmath.log(head) + total, size


def gamma_q_oracle(z, q):
    """Gamma_q(z) at 60 digits as complex, from the exact images of the
    double z and q, by the functional equation: with n = max(0, ceil(-Re z))
    and w = z + n + 1, Gamma_q(z) = (1 - q)^{1-z} (q;q)_oo / (q^w;q)_oo
    / prod_{k<=n} (1 - q^{z+k}).  Each 1 - q^{z+k} keeps 45 of the 60
    digits at a distance of 1e-15 from a pole.  (mpmath's qgamma raises
    NoConvergence at q = 0.99, next to a pole and at w alike.)"""
    with mpmath.workdps(60):
        z, q = mpmath.mpmathify(z), mpmath.mpf(q)
        n = max(0, math.ceil(-float(mpmath.re(z))))
        top, bottom = (log_qpoch_oracle(a, q, dps=60)[0] for a in (q, q ** (z + n + 1)))
        value = mpmath.exp(top - bottom) * (1 - q) ** (1 - z)
        for k in range(n + 1):
            value /= 1 - q ** (z + k)
        return complex(value)


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


def _mp_qpoch(a, q, n):
    """(a;q)_n in mpmath, for mpmath a and q."""
    value = mpmath.mpf(1)
    for j in range(n):
        value *= 1 - a * q**j
    return value


def aw_recurrence_oracle(params, q, nmax):
    """[(A_n, B_n, C_n) for n < nmax] of the Askey-Wilson recurrence
    2x p_n = A_n p_{n+1} + B_n p_n + C_n p_{n-1} at 50 digits, each from
    its per-degree definition: A_n = 2 k_n/k_{n+1} and
    C_n = (2 k_{n-1}/k_n)(h_n/h_{n-1}), with k_n = 2^n (q^{n-1}abcd;q)_n
    and h_n/h_0 = (1-q^{n-1}abcd)(q,ab,ac,ad,bc,bd,cd;q)_n
    / ((1-q^{2n-1}abcd)(abcd;q)_n), and B_n from the value
    v(n) = a^{-n}(ab,ac,ad;q)_n at x0 = (a+1/a)/2,
    B_n = 2 x0 - A_n v(n+1)/v(n) - C_n v(n-1)/v(n).  p_n is symmetric in
    its parameters, so a is the one of largest modulus; one must be
    nonzero."""
    with mpmath.workdps(50):
        q = mpmath.mpf(q)
        a, b, c, d = sorted((mpmath.mpmathify(e) for e in params), key=lambda e: -abs(e))
        s = a * b * c * d
        pairs = (q, a * b, a * c, a * d, b * c, b * d, c * d)

        def lead(n):
            return 2**n * _mp_qpoch(s * q ** (n - 1), q, n)

        def norm(n):
            num = (1 - s * q ** (n - 1)) * mpmath.fprod(_mp_qpoch(e, q, n) for e in pairs)
            return num / ((1 - s * q ** (2 * n - 1)) * _mp_qpoch(s, q, n))

        def value(n):
            return a**-n * mpmath.fprod(_mp_qpoch(e, q, n) for e in pairs[1:4])

        k, h, v = ([f(n) for n in range(nmax + 1)] for f in (lead, norm, value))
        rows = []
        for n in range(nmax):
            an = 2 * k[n] / k[n + 1]
            cn = 2 * k[n - 1] / k[n] * h[n] / h[n - 1] if n else mpmath.mpf(0)
            low = cn * v[n - 1] / v[n] if n else 0
            bn = a + 1 / a - an * v[n + 1] / v[n] - low
            rows.append(tuple(complex(e) for e in (an, bn, cn)))
        return rows


def big_qjacobi_recurrence_oracle(a, b, c, d, q, nmax):
    """[(B_n, C_n) for n < nmax] of the monic big q-Jacobi recurrence
    x P_n = P_{n+1} + B_n P_n + C_n P_{n-1}, each from its per-degree
    definition: C_n = h_n/h_{n-1} with the monic norm
    h_n ~ q^{n(n-1)/2} (cd)^n (q,qa,qb,-qbc/d,-qad/c;q)_n
    / ((q^2 ab;q)_{2n} (q^{n+1}ab;q)_n), and B_n from the monic value
    v(n) = x0^n (qa;q)_n (-qad/c;q)_n / (q^{n+1}ab;q)_n at x0 = c/(qa),
    B_n = x0 - v(n+1)/v(n) - C_n v(n-1)/v(n).  50 digits; B_n is
    continuous in a, so a = 0 is taken as a = 1e-40 at 130 digits, where
    the cancellation at x0 ~ 1e40 costs about 40 of them and the
    definition differs from the limit by about 1e-40 relative."""
    with mpmath.workdps(50 if a != 0 else 130):
        q, c, d = mpmath.mpf(q), mpmath.mpf(c), mpmath.mpf(d)
        a = mpmath.mpmathify(a) if a != 0 else mpmath.mpf(10) ** -40
        b = mpmath.mpmathify(b)
        x0 = c / (q * a)

        def norm(n):
            factors = (q, q * a, q * b, -q * b * c / d, -q * a * d / c)
            num = q ** (n * (n - 1) / 2) * (c * d) ** n
            num *= mpmath.fprod(_mp_qpoch(e, q, n) for e in factors)
            return num / (_mp_qpoch(q * q * a * b, q, 2 * n) * _mp_qpoch(q ** (n + 1) * a * b, q, n))

        def value(n):
            num = x0**n * _mp_qpoch(q * a, q, n) * _mp_qpoch(-q * a * d / c, q, n)
            return num / _mp_qpoch(q ** (n + 1) * a * b, q, n)

        h, v = ([f(n) for n in range(nmax + 1)] for f in (norm, value))
        rows = []
        for n in range(nmax):
            cn = h[n] / h[n - 1] if n else mpmath.mpf(0)
            low = cn * v[n - 1] / v[n] if n else 0
            rows.append((complex(x0 - v[n + 1] / v[n] - low), complex(cn)))
        return rows
