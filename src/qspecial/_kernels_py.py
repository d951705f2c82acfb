"""Pure-Python twins of the compiled kernels.

Same call signatures and semantics as the compiled extension
``_kernels`` (hand-written C, ``_kernels.c``); selected automatically when
the extension is unavailable.  Status codes: 0 ok, 1 convergence budget
exhausted, 2 zero denominator factor.  The products take a counted number
of factors and have no stopping rule of their own: the truncated
(a;q)_oo is qpoch_finite with a count qcore sets before the walk.
"""

BACKEND = "python"


def qpoch_finite(a, q, k):
    """Finite product prod_{j=0}^{k-1} (1 - a q^j) for k >= 0."""
    out = 1.0 + 0.0j
    f = complex(a)
    for _ in range(k):
        out *= 1.0 - f
        f *= q
    return out


def qpoch_negative(a, q, k):
    """1 / prod_{j=1}^{k} (1 - a q^{-j}) for k >= 1; status 2 on zero factor."""
    den = 1.0 + 0.0j
    f = complex(a)
    for _ in range(k):
        f /= q
        den *= 1.0 - f
    if den == 0:
        return 0j, 2
    return 1.0 / den, 0


def phi_sum(upper, lower, q, z, sign_power, n_terms, tail_epsilon, max_terms):
    """Sum a series from t_0 = 1 by forward term-ratio recurrence.

    term_{k+1}/term_k = prod(1 - a_i q^k) / prod(1 - b_j q^k)
                        * ((-1) q^k)^sign_power * z,

    so an r_phi_s passes q as its first lower parameter, for (q;q)_k.

    n_terms >= 0 sums exactly k = 0..n_terms (terminating); n_terms < 0
    runs until 5 consecutive terms are below tail_epsilon relative to the
    running magnitude.  Returns (value, status, sum |t_k|), the last over
    the terms summed, t_0 = 1 included.
    """
    z = complex(z)
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    mass = 1.0
    scale = 1.0
    qk = 1.0
    quiet = 0
    tail = n_terms < 0
    for _ in range(max_terms if tail else n_terms):
        num = z
        for a in upper:
            num *= 1.0 - a * qk
        den = 1.0
        for b in lower:
            den *= 1.0 - b * qk
        if den == 0:
            return total, 2, mass
        if sign_power:
            num *= (-qk) ** sign_power
        term = term * num / den
        total += term
        t = abs(term)
        mass += t
        if t > scale:
            scale = t
        if tail:
            if t < tail_epsilon * scale:
                quiet += 1
                if quiet >= 5:
                    return total, 0, mass
            else:
                quiet = 0
        qk *= q
    return total, 1 if tail else 0, mass
