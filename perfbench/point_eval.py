"""point_eval: single calls of the public evaluators, fresh parameters per call.

A run draws a pool of distinct calls from its seed and times passes over
that pool until the run's time is used up; every pass is one round.  The
references are computed once per call of the pool, after its first pass,
so that oracle work stays out of the timings however fast the program
gets.  Within a pass no parameter set repeats.
"""

import cmath
import math
import random

from mpmath import mp

import mpref
from mpref import num, phi_terminating, qp_fin, qp_inf

TOL = 1e-9
MODULES = ("qspecial.qdiffeq",)

# calls per pass for each kind; product kinds draw q from three strata
# (low, mid, near-one band) with the split given in PRODUCT_STRATA
COUNTS = {
    "qpoch_finite": 120,
    "qpoch_infinite": 150,
    "qbinomial": 80,
    "phi_2phi1": 100,
    "phi_3phi2_terminating": 80,
    "psi_1psi1": 60,
    "e_q": 60,
    "E_q": 60,
    "gamma_q": 80,
    "beta_q": 60,
    "theta4": 60,
    "jackson_bessel_1": 40,
    "jackson_bessel_2": 40,
    "hahn_exton_bessel": 40,
    "qintegral_0a": 50,
    "family_eval": 80,
    "big_qjacobi": 60,
    "little_qjacobi": 60,
    "aw_poly": 60,
    "q_racah": 40,
    "connection_residual": 30,
}
PRODUCT_STRATA = ((0.02, 0.5, 0.4), (0.5, 0.95, 0.4), (0.95, 0.996, 0.2))
PRODUCT_KINDS = ("qpoch_infinite", "e_q", "E_q", "gamma_q", "beta_q", "theta4")
# above q ~ 0.9954 the denominator (q^a;q)_oo (q^b;q)_oo of beta_q underflows
# to 0 for some draws (F7); a failure that hangs on the draw cannot be a fixed
# share of a run, so the band of the drawn calls stops short
BAND_TOP = {"beta_q": 0.995}

# F1: infinite products exhaust their 10 000-factor budget above q ~ 0.9964
F1_OPS = [
    (kind, args)
    for kind, make in (
        ("qpoch_infinite", lambda q: (0.5, q)),
        ("e_q", lambda q: (0.5, q)),
        ("E_q", lambda q: (0.5, q)),
        ("gamma_q", lambda q: (1.5, q)),
        ("beta_q", lambda q: (0.5, 1.5, q)),
    )
    for args in (make(0.997), make(0.999), make(0.9999))
] + [("theta4", (0.25, q)) for q in (0.999, 0.9995, 0.9999)]
# F2: the 4phi3 series of aw_poly loses its digits with no warning
F2_OPS = [("aw_poly", (n, 0.3, 0.6, 0.4, -0.3, 0.2, 0.55)) for n in range(8, 13)]
# faults outside the regimes of the drawn calls, one fixed call each per pass:
# F4 the 2phi1 series cancels to a wrong value, F5 the Hahn-Exton q-Bessel
# series cancels to a wrong value, F6 the big q-Jacobi series loses its digits
# for small q*a, F7 beta_q raises a pole error at no pole near q = 1
FIXED_FAULT_OPS = [
    ("phi_2phi1", (0.786, -0.778, 0.687, 0.947, -0.827), "F4"),
    ("hahn_exton_bessel", (0.477, 2.135, 0.950), "F5"),
    ("big_qjacobi", (5, 0.74, 0.10, 0.40, 1.12, 1.03, 0.32), "F6"),
    ("beta_q", (2.987, 0.343, 0.9958), "F7"),
]


def _signed(rng, lo, hi):
    return rng.uniform(lo, hi) * rng.choice((-1.0, 1.0))


def _stratified(rng, lo, hi, i, count):
    """The i-th of `count` draws falls in the i-th equal slice of [lo, hi], so
    that the spread of q, which sets most costs, hardly depends on the seed."""
    return lo + (i + rng.random()) * (hi - lo) / count


def _q_product(rng, i, count, top):
    """q for the i-th of `count` product calls, stratified by PRODUCT_STRATA;
    `top` caps the near-one band."""
    start = 0
    for lo, hi, share in PRODUCT_STRATA:
        size = round(share * count)
        if i < start + size or (lo, hi, share) == PRODUCT_STRATA[-1]:
            return _stratified(rng, lo, min(hi, top), min(i - start, size - 1), size)
        start += size


def _family_args(rng, q):
    fam = ("q_hahn", "q_krawtchouk", "q_meixner", "wall")[rng.randrange(4)]
    if fam == "q_hahn":
        big_n = rng.randrange(3, 9)
        kw = (("a", rng.uniform(0.1, 0.9)), ("b", rng.uniform(0.1, 0.9)), ("N", big_n))
        n, x = rng.randrange(0, min(4, big_n) + 1), rng.uniform(1.0, q**-big_n)
    elif fam == "q_krawtchouk":
        big_n = rng.randrange(3, 9)
        kw = (("b", rng.uniform(0.2, 2.0)), ("N", big_n))
        n, x = rng.randrange(0, min(4, big_n) + 1), rng.uniform(1.0, q**-big_n)
    elif fam == "q_meixner":
        kw = (("a", rng.uniform(0.1, 0.9)), ("c", rng.uniform(0.2, 2.0)))
        n, x = rng.randrange(0, 5), rng.uniform(1.0, q**-4)
    else:
        kw = (("a", rng.uniform(0.1, 0.9)),)
        n, x = rng.randrange(0, 5), rng.uniform(0.0, 1.0)
    return (fam, q, kw, n, x)


def _connection_args(rng, q):
    while True:
        a, b = rng.uniform(0.2, 0.6), rng.uniform(0.4, 0.8)
        c = rng.uniform(1.2, 1.8)
        z0 = rng.uniform(max(1.1 * q ** (1 + c - a - b), 0.3), 0.9)
        # keep the theta quotients and gamma-type ratios away from their poles
        near = (q ** (b - c) * z0, q ** (1 - b + c) / z0, q ** (a - c + 1), q ** (c - 1))
        if z0 < 0.9 and all(abs(1 - v * q**j) > 0.05 for v in near for j in range(30)):
            return (a, b, c, q, z0)


def _draw(kind, rng, i, count):
    u = rng.uniform

    def sq(lo, hi):
        return _stratified(rng, lo, hi, i, count)

    if kind in PRODUCT_KINDS:
        q = _q_product(rng, i, count, BAND_TOP.get(kind, 1.0))
        if kind == "qpoch_infinite":
            if rng.random() < 0.3:
                a = cmath.rect(u(0.05, 0.9), u(-math.pi, math.pi))
            else:
                a = u(-3.0, 0.9)
            return (a, q)
        if kind == "e_q":
            return (u(-0.9, 0.9), q)
        if kind == "E_q":
            return (u(-0.9, 3.0), q)
        if kind == "gamma_q":
            return (u(0.2, 5.0), q)
        if kind == "beta_q":
            return (u(0.2, 3.0), u(0.2, 3.0), q)
        return (u(0.0, 1.0), q)
    if kind == "qpoch_finite":
        a = cmath.rect(u(0.05, 0.9), u(-math.pi, math.pi)) if rng.random() < 0.3 else u(-2.0, 0.9)
        return (a, sq(0.05, 0.95), rng.randrange(0, 61))
    if kind == "qbinomial":
        n = rng.randrange(0, 41)
        return (n, rng.randrange(0, n + 1), sq(0.05, 0.99))
    if kind == "phi_2phi1":
        return (_signed(rng, 0.1, 0.9), _signed(rng, 0.1, 0.9), _signed(rng, 0.1, 0.9),
                sq(0.1, 0.75), _signed(rng, 0.05, 0.9))
    if kind == "phi_3phi2_terminating":
        return (rng.randrange(0, 6), _signed(rng, 0.1, 0.9), _signed(rng, 0.1, 0.9),
                _signed(rng, 0.1, 0.9), _signed(rng, 0.1, 0.9), sq(0.5, 0.9))
    if kind == "psi_1psi1":
        a, z = u(-2.0, -0.5), u(0.5, 0.9)
        return (a, a * u(0.2, 0.8) * z, sq(0.1, 0.9), z)
    if kind in ("jackson_bessel_1", "jackson_bessel_2", "hahn_exton_bessel"):
        zmax = {"jackson_bessel_1": 1.9, "jackson_bessel_2": 3.0, "hahn_exton_bessel": 2.0}[kind]
        return (u(0.0, 3.0), u(0.05, zmax), sq(0.1, 0.75))
    if kind == "qintegral_0a":
        return (rng.randrange(0, 4), u(-0.9, 0.9), _signed(rng, 0.2, 1.0), sq(0.1, 0.9))
    if kind == "family_eval":
        return _family_args(rng, sq(0.4, 0.8))
    if kind == "big_qjacobi":
        c, d = u(0.3, 1.5), u(0.3, 1.5)
        return (rng.randrange(0, 5), u(-d, c), u(0.5, 0.9), u(0.1, 0.9), c, d, sq(0.6, 0.9))
    if kind == "little_qjacobi":
        return (rng.randrange(0, 6), u(0.0, 1.0), u(0.1, 0.9), _signed(rng, 0.1, 0.9), sq(0.3, 0.9))
    if kind == "aw_poly":
        return (rng.randrange(0, 5), u(-1.0, 1.0), *(_signed(rng, 0.1, 0.8) for _ in range(4)),
                sq(0.2, 0.8))
    if kind == "q_racah":
        big_n = rng.randrange(3, 8)
        q = sq(0.4, 0.8)
        return (rng.randrange(0, min(4, big_n) + 1), rng.randrange(0, big_n + 1),
                u(0.1, 0.9), u(0.1, 0.9), q ** float(-big_n - 1), u(0.1, 0.9), q, big_n)
    if kind == "connection_residual":
        return _connection_args(rng, sq(0.4, 0.7))
    raise ValueError(kind)


def make_ops(qs, seed):
    """The pool: (kind, args, fault) for every call of one pass."""
    rng = random.Random(f"point_eval|{seed}")
    pool = [
        (kind, _draw(kind, rng, i, count), None)
        for kind, count in COUNTS.items()
        for i in range(count)
    ]
    pool += [(kind, args, "F1") for kind, args in F1_OPS]
    pool += [(kind, args, "F2") for kind, args in F2_OPS]
    pool += FIXED_FAULT_OPS
    rng.shuffle(pool)
    return pool


# ---------------------------------------------------------------------------
# the calls


def _call_family(qs, args):
    fam, q, kw, n, x = args
    return qs.family_eval(qs.FamilyParams(fam, q, **dict(kw)), n, x)


def _call_connection(qs, args):
    a, b, c, q, z0 = args
    return qs.qdiffeq.connection_residual(qs.qdiffeq.QHGEParams(a, b, c, q), z0)


def _call_qintegral(qs, args):
    m, c, a, q = args
    return qs.qintegral_0a(lambda t: t**m / (1.0 - c * t), a, q)


CALLS = {
    "qpoch_finite": lambda qs, a: qs.qpoch(a[0], a[1], a[2]),
    "qpoch_infinite": lambda qs, a: qs.qpoch(a[0], a[1], qs.INFINITY),
    "qbinomial": lambda qs, a: qs.qbinomial(*a),
    "phi_2phi1": lambda qs, a: qs.eval_phi(qs.SeriesSpec([a[0], a[1]], [a[2]], a[3], a[4])),
    "phi_3phi2_terminating": lambda qs, a: qs.eval_phi(
        qs.SeriesSpec([a[5] ** float(-a[0]), a[1], a[2]], [a[3], a[4]], a[5], a[5])
    ),
    "psi_1psi1": lambda qs, a: qs.eval_psi(qs.SeriesSpec([a[0]], [a[1]], a[2], a[3])),
    "e_q": lambda qs, a: qs.e_q(*a),
    "E_q": lambda qs, a: qs.E_q(*a),
    "gamma_q": lambda qs, a: qs.gamma_q(*a),
    "beta_q": lambda qs, a: qs.beta_q(*a),
    "theta4": lambda qs, a: qs.theta4(*a),
    "jackson_bessel_1": lambda qs, a: qs.jackson_bessel_1(*a),
    "jackson_bessel_2": lambda qs, a: qs.jackson_bessel_2(*a),
    "hahn_exton_bessel": lambda qs, a: qs.hahn_exton_bessel(*a),
    "qintegral_0a": _call_qintegral,
    "family_eval": _call_family,
    "big_qjacobi": lambda qs, a: qs.big_qjacobi(a[0], a[1], qs.BigQJacobiParams(*a[2:])),
    "little_qjacobi": lambda qs, a: qs.little_qjacobi(*a),
    "aw_poly": lambda qs, a: qs.aw_poly(a[0], a[1], qs.AWParams(*a[2:])),
    "q_racah": lambda qs, a: qs.q_racah(a[0], a[1], *a[2:]),
    "connection_residual": _call_connection,
}


def call(qs, op):
    kind, args, _ = op
    return CALLS[kind](qs, args)


# ---------------------------------------------------------------------------
# the references: (value, scale); a value passes when
# |v - value| <= TOL * max(|value|, scale)


def _poly_scale(evaluate, points):
    """Largest modulus of a polynomial over points of its support: the size
    against which a double-precision value is judged near its zeros."""
    return max(abs(evaluate(x)) for x in points)


def _ref_bessel(kind, args):
    """Prefactor (q^{nu+1};q)_oo/(q;q)_oo times the printed series; the
    scale is the size of the leading term."""
    nu, z, q = (num(v) for v in args)
    qnu = q ** (nu + 1)
    front = qp_inf(qnu, q) / qp_inf(q, q)
    if kind == "jackson_bessel_1":
        front *= (z / 2) ** nu
        body = mp.qhyper([0, 0], [qnu], q, -z * z / 4)
    elif kind == "jackson_bessel_2":
        front *= (z / 2) ** nu
        body = mp.qhyper([], [qnu], q, -qnu * z * z / 4)
    else:
        front *= z**nu
        body = mp.qhyper([0], [qnu], q, q * z * z)
    return front * body, abs(front)


def _family_value(fam, q, kw, n, x):
    q, x = num(q), num(x)
    kw = {k: num(v) for k, v in kw}
    qn = q**-n
    if fam == "q_hahn":
        a, b, big_n = kw["a"], kw["b"], int(kw["N"])
        up, lo, z = [qn, a * b * q ** (n + 1), x], [a * q, q**-big_n], q
    elif fam == "q_krawtchouk":
        big_n = int(kw["N"])
        up, lo, z = [qn, -(q**n) / kw["b"], x], [0, q**-big_n], q
    elif fam == "q_meixner":
        up, lo, z = [qn, x], [q * kw["a"]], -(q ** (n + 1)) / kw["c"]
    else:
        up, lo, z = [qn, 0], [q * kw["a"]], q * x
    return phi_terminating(up, lo, q, z, n)


def _family_points(fam, q, kw):
    kw = dict(kw)
    if fam in ("q_hahn", "q_krawtchouk"):
        return [q**-j for j in range(kw["N"] + 1)]
    if fam == "q_meixner":
        return [q**-j for j in range(5)]
    return [0.0, 1.0, q, q * q, q**3]


def _big_qjacobi_value(n, x, a, b, c, d, q):
    a, b, c, d, q, x = (num(v) for v in (a, b, c, d, q, x))
    return phi_terminating(
        [q**-n, q ** (n + 1) * a * b, q * a * x / c], [q * a, -q * a * d / c], q, q, n
    )


def _little_qjacobi_value(n, x, a, b, q):
    a, b, q, x = (num(v) for v in (a, b, q, x))
    return phi_terminating([q**-n, q ** (n + 1) * a * b], [q * a], q, q * x, n)


def _aw_value(n, x, a, b, c, d, q):
    """a^{-n} (ab, ac, ad;q)_n 4phi3(q^-n, q^{n-1}abcd, a e^{it}, a e^{-it}; ab, ac, ad; q, q)."""
    a, b, c, d, q = (num(v) for v in (a, b, c, d, q))
    z = mp.expj(mp.acos(num(x)))
    body = phi_terminating(
        [q**-n, q ** (n - 1) * a * b * c * d, a * z, a / z], [a * b, a * c, a * d], q, q, n
    )
    return a**-n * qp_fin(a * b, q, n) * qp_fin(a * c, q, n) * qp_fin(a * d, q, n) * body


def _racah_value(n, x, alpha, beta, big_n, delta, q):
    """4phi3(q^-n, q^{n+1} alpha beta, q^-x, q^{x+1} gamma delta;
    alpha q, beta delta q, gamma q; q, q) with gamma q = q^-N."""
    alpha, beta, delta, q = (num(v) for v in (alpha, beta, delta, q))
    gamma = q ** (-big_n - 1)
    up = [q**-n, q ** (n + 1) * alpha * beta, q**-x, q ** (x + 1) * gamma * delta]
    lo = [alpha * q, beta * delta * q, gamma * q]
    return phi_terminating(up, lo, q, q, min(n, x))


def _ref_theta4(x, q):
    """sum_k (-1)^k q^{k^2} e^{2 pi i k x} (mpmath's jtheta) for q < 0.9; nearer
    q = 1 the sum cancels to far below its terms, so the triple product
    (q^2, q e^{2 pi i x}, q e^{-2 pi i x}; q^2)_oo is taken instead."""
    x, q = num(x), num(q)
    if q < 0.9:
        return mp.jtheta(4, mp.pi * x, q)
    w = mp.expjpi(2 * x)
    return qp_inf(q * q, q * q) * qp_inf(q * w, q * q) * qp_inf(q / w, q * q)


def _ref_qintegral(m, c, a, q):
    """a (1-q) sum_k q^k f(a q^k) for f(t) = t^m / (1 - c t)."""
    c, a, q = num(c), num(a), num(q)
    eps = mp.mpf(2) ** (-mp.prec - 10)
    total, w = mp.mpf(0), mp.mpf(1)
    while True:
        term = w * (a * w) ** m / (1 - c * a * w)
        total += term
        if abs(term) <= eps * abs(total):
            return a * (1 - q) * total
        w *= q


def _ref_connection(args):
    a, b, c, q, z0 = (num(v) for v in args)
    p = lambda e: q**e
    u1 = mp.qhyper([p(a), p(b)], [p(c)], q, z0)
    u2 = z0 ** (1 - c) * mp.qhyper([p(1 + a - c), p(1 + b - c)], [p(2 - c)], q, z0)
    u3 = z0**-a * mp.qhyper([p(a), p(a - c + 1)], [p(a - b + 1)], q, p(-a - b + c + 1) / z0)
    return mp.mpf(0), max(abs(u1), abs(u2), abs(u3), 1)


def reference(op):
    """(value, scale) of one call, from mpmath alone."""
    kind, a, _ = op
    with mp.workdps(40):
        if kind == "qpoch_finite":
            return qp_fin(a[0], a[1], a[2]), 0
        if kind == "qpoch_infinite":
            return qp_inf(a[0], a[1]), 0
        if kind == "qbinomial":
            n, k, q = a
            return qp_fin(q, q, n) / (qp_fin(q, q, k) * qp_fin(q, q, n - k)), 0
        if kind == "phi_2phi1":
            return mp.qhyper([num(a[0]), num(a[1])], [num(a[2])], num(a[3]), num(a[4])), 1
        if kind == "phi_3phi2_terminating":
            n, q = a[0], num(a[5])
            return phi_terminating([q**-n, a[1], a[2]], [a[3], a[4]], q, q, n), 1
        if kind == "psi_1psi1":
            return mpref.ramanujan_1psi1(*a), 0
        if kind == "e_q":
            return 1 / qp_inf(a[0], a[1]), 0
        if kind == "E_q":
            return qp_inf(-a[0], a[1]), 0
        if kind == "gamma_q":
            return mpref.qgamma(*a), 0
        if kind == "beta_q":
            x, y, q = a
            return mpref.qgamma(x, q) * mpref.qgamma(y, q) / mpref.qgamma(num(x) + num(y), q), 0
        if kind == "theta4":
            return _ref_theta4(*a), 0
        if kind in ("jackson_bessel_1", "jackson_bessel_2", "hahn_exton_bessel"):
            return _ref_bessel(kind, a)
        if kind == "qintegral_0a":
            return _ref_qintegral(*a), 0
        if kind == "connection_residual":
            return _ref_connection(a)
    with mp.workdps(100):
        if kind == "family_eval":
            fam, q, kw, n, x = a
            f = lambda t: _family_value(fam, q, kw, n, t)
            return f(x), _poly_scale(f, _family_points(fam, q, kw))
        if kind == "big_qjacobi":
            n, x, pa, pb, c, d, q = a
            f = lambda t: _big_qjacobi_value(n, t, pa, pb, c, d, q)
            return f(x), _poly_scale(f, [c, c * q, c * q * q, -d, -d * q])
        if kind == "little_qjacobi":
            n, x, pa, pb, q = a
            f = lambda t: _little_qjacobi_value(n, t, pa, pb, q)
            return f(x), _poly_scale(f, [1.0, q, q * q, q**3])
        if kind == "aw_poly":
            n, x, *abcdq = a
            f = lambda t: _aw_value(n, t, *abcdq)
            return f(x), _poly_scale(f, [-0.9, -0.45, 0.0, 0.45, 0.9])
        if kind == "q_racah":
            n, x, alpha, beta, _, delta, q, big_n = a
            f = lambda t: _racah_value(n, t, alpha, beta, big_n, delta, q)
            return f(x), _poly_scale(f, range(big_n + 1))
    raise ValueError(kind)


class Checker:
    """Judges outputs against references computed once per pool entry; an
    output equal to one already judged for that entry gets the same verdict."""

    def __init__(self):
        self.refs = {}
        self.seen = {}

    def check(self, index, op, value):
        """True when value matches the reference of op (pool entry index)."""
        seen = self.seen.get(index)
        if seen is not None and seen[0] == value:
            return seen[1]
        if index not in self.refs:
            self.refs[index] = reference(op)
        verdict = self._judge(self.refs[index], value)
        self.seen[index] = (value, verdict)
        return verdict

    @staticmethod
    def _judge(reference_pair, value):
        ref, scale = reference_pair
        try:
            v = num(complex(value))
        except (TypeError, ValueError, OverflowError):
            return False
        if not (mp.isfinite(v.real) and mp.isfinite(v.imag)):
            return False
        return abs(v - ref) <= TOL * max(abs(ref), scale)
