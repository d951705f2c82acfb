"""High-precision references, computed with mpmath and nothing from qspecial.

Every function takes plain Python numbers (the same floats the program
receives), converts them exactly to mpmath numbers and works at the
precision set by the caller (``mp.workdps``).  Formulas are the printed
ones of the tutorial and of Gasper & Rahman, *Basic Hypergeometric
Series* (1990); none is copied from the library.
"""

from mpmath import mp


def num(x):
    """Exact mpmath image of a float or complex; mpmath numbers pass through."""
    return mp.mpmathify(x)


def qp_inf(a, q):
    """(a;q)_oo.

    mpmath's own ``qp`` for q < 0.5.  For larger q, where ``qp`` is slow
    and stops converging near q = 1, factors are peeled off until
    |a q^j| <= 1/2 and the rest is exp(-sum_k a^k / (k (1 - q^k))), the
    logarithm of the q-binomial theorem (Gasper & Rahman, Sec. 1.3).
    """
    a, q = num(a), num(q)
    if q < 0.5:
        return mp.qp(a, q)
    head = mp.mpf(1)
    while abs(a) > 0.5:
        head *= 1 - a
        a *= q
    if a == 0:
        return head
    eps = mp.mpf(2) ** (-mp.prec - 10)
    total, ak, qk, k = 0, a, q, 1
    while True:
        term = ak / (k * (1 - qk))
        total += term
        if abs(term) <= eps * abs(total):
            break
        k += 1
        ak *= a
        qk *= q
    return head * mp.exp(-total)


def qp_fin(a, q, n):
    """(a;q)_n for n >= 0."""
    a, q = num(a), num(q)
    out = mp.mpf(1)
    for j in range(n):
        out *= 1 - a * q**j
    return out


def phi_terminating(upper, lower, q, z, n):
    """r_phi_s summed exactly over k = 0..n.

    Terms: (a;q)_k / ((b;q)_k (q;q)_k) ((-1)^k q^{k(k-1)/2})^{1+s-r} z^k.
    """
    upper = [num(a) for a in upper]
    lower = [num(b) for b in lower]
    q, z = num(q), num(z)
    power = 1 + len(lower) - len(upper)
    term, total = mp.mpf(1), mp.mpf(0)
    for k in range(n + 1):
        total += term
        if k == n:
            break
        qk = q**k
        ratio = z / (1 - q * qk)
        for a in upper:
            ratio *= 1 - a * qk
        for b in lower:
            ratio /= 1 - b * qk
        ratio *= (-qk) ** power
        term *= ratio
    return total


def qgamma(z, q):
    """Gamma_q(z) = (q;q)_oo (1-q)^{1-z} / (q^z;q)_oo; ``mp.qgamma`` for q < 0.5."""
    z, q = num(z), num(q)
    if q < 0.5:
        return mp.qgamma(z, q)
    return qp_inf(q, q) * (1 - q) ** (1 - z) / qp_inf(q**z, q)


def ramanujan_1psi1(a, b, q, z):
    """Ramanujan's sum of 1psi1(a; b; q, z), |b/a| < |z| < 1:

    (q, b/a, az, q/(az);q)_oo / (b, q/a, z, b/(az);q)_oo.
    """
    a, b, q, z = num(a), num(b), num(q), num(z)
    top = qp_inf(q, q) * qp_inf(b / a, q) * qp_inf(a * z, q) * qp_inf(q / (a * z), q)
    bot = qp_inf(b, q) * qp_inf(q / a, q) * qp_inf(z, q) * qp_inf(b / (a * z), q)
    return top / bot


def big_qjacobi_norm(n, a, b, c, d, q):
    """Squared norm of the monic big q-Jacobi polynomial under the weight
    (qx/c, -qx/d;q)_oo / (qax/c, -qbx/d;q)_oo on the q-lattices of [-d, c]:

    (1-q) c (q, -d/c, -qc/d, q^2 ab;q)_oo / (qa, qb, -qbc/d, -qad/c;q)_oo
      * q^{n(n-1)/2} (cd)^n (q, qa, qb, -qbc/d, -qad/c;q)_n
      / ((q^2 ab;q)_{2n} (q^{n+1} ab;q)_n).
    """
    a, b, c, d, q = (num(v) for v in (a, b, c, d, q))
    mass = (1 - q) * c
    for v in (q, -d / c, -q * c / d, q * q * a * b):
        mass *= qp_inf(v, q)
    for v in (q * a, q * b, -q * b * c / d, -q * a * d / c):
        mass /= qp_inf(v, q)
    ratio = q ** (n * (n - 1) / mp.mpf(2)) * (c * d) ** n
    for v in (q, q * a, q * b, -q * b * c / d, -q * a * d / c):
        ratio *= qp_fin(v, q, n)
    ratio /= qp_fin(q * q * a * b, q, 2 * n) * qp_fin(q ** (n + 1) * a * b, q, n)
    return mass * ratio


def little_qjacobi_norm(n, a, b, q):
    """Squared norm of p_n(x; a, b; q) under the q-beta-normalized weight
    t^alpha (qt;q)_oo/(qbt;q)_oo on [0, 1], a = q^alpha:

    (qa)^n (1-qab) (qb;q)_n (q;q)_n / ((1-q^{2n+1}ab) (qa;q)_n (qab;q)_n).
    """
    a, b, q = num(a), num(b), num(q)
    return (
        (q * a) ** n
        * (1 - q * a * b)
        * qp_fin(q * b, q, n)
        * qp_fin(q, q, n)
        / ((1 - q ** (2 * n + 1) * a * b) * qp_fin(q * a, q, n) * qp_fin(q * a * b, q, n))
    )


def aw_norm(n, a, b, c, d, q):
    """h_n = (1/2pi) int_0^pi p_n(cos t)^2 w(e^{it}) dt for Askey-Wilson
    polynomials with leading coefficient 2^n (q^{n-1}abcd;q)_n:

    h_0 = (abcd;q)_oo / (q, ab, ac, ad, bc, bd, cd;q)_oo,
    h_n/h_0 = (1-q^{n-1}abcd) (q, ab, ac, ad, bc, bd, cd;q)_n
              / ((1-q^{2n-1}abcd) (abcd;q)_n).
    """
    a, b, c, d, q = (num(v) for v in (a, b, c, d, q))
    pairs = (q, a * b, a * c, a * d, b * c, b * d, c * d)
    abcd = a * b * c * d
    h0 = qp_inf(abcd, q)
    ratio = (1 - q ** (n - 1) * abcd) / ((1 - q ** (2 * n - 1) * abcd) * qp_fin(abcd, q, n))
    for v in pairs:
        h0 /= qp_inf(v, q)
        ratio *= qp_fin(v, q, n)
    return h0 * ratio
