"""Machine-checked identity catalog.

Each record pairs two independent evaluation routes for one identity
(series vs product, series vs q-integral, polynomial vs recurrence,
coefficient stream vs closed generating function) with a seeded
parameter sampler and a tolerance class.  Verification draws random
parameters, evaluates both sides, and reports the worst relative error.

A sampler only draws: it returns None to reject a candidate from its
parameters alone and evaluates nothing.  The conditioning of a draw is
judged in verify, from the walks its two sides make: each phi and psi
walk reports its amplification sum |t_k| / |sum t_k|, a side that adds
terms which can cancel reports the same of its finite sum (_sum), and
a guarded record redraws when the worst of them would swamp its
tolerance class at 1e-14 relative rounding per value, or when a side
raises.  Unguarded records keep every draw their sampler admits.  A
q-integral side is one lattice walk of its weight (_jackson).
"""

import cmath
import json
import math
import random
from itertools import accumulate, count
from typing import NamedTuple

import numpy as np

from qspecial.errors import DomainError, QSpecialError
from qspecial.qcore import (
    INFINITY,
    QUIET_TERMS,
    TAIL_EPSILON,
    _qpoch_prefix,
    qbinomial,
    qpoch,
    qpoch_inf_ratio,
    qpoch_list,
    tail_sum,
)
from qspecial.qfunctions import E_q, e_q, gamma_q, gamma_q_reciprocal, partition_count
from qspecial.qseries import (
    SeriesSpec,
    _conditioning_scope,
    _walked,
    eval_phi,
    eval_psi,
    reverse_terminating,
)
from qspecial.qorthopoly import little_qjacobi
from qspecial.askey_wilson import AWParams, aw_poly, aw_recurrence_table
from qspecial.limits import classical_eval
from qspecial.recurrence import Recurrence, eval_all, lattice_gram

TOLERANCES = {
    "EXACT_TERMINATING": 1e-11,
    "PRODUCT_SERIES": 1e-10,
    "LIMIT_CHAIN": 1e-8,
}

# relative rounding error of a well-conditioned series value
_ROUNDING = 1e-14
# candidates drawn for one sample before the sampler is given up
_TRIES = 500


class IdentityRecord(NamedTuple):
    """One verifiable identity: two independent sides plus a sampler."""

    id: str
    lhs: object
    rhs: object
    sampler: object
    tolerance_class: str
    reference: str
    # verify redraws a guarded record's ill-conditioned or raising draws
    guarded: bool = False


class VerificationReport:
    """Outcome of sampling one identity."""

    def __init__(self, id, samples, seed, tolerance):
        self.id, self.samples, self.seed, self.tolerance = id, samples, seed, tolerance
        self.max_rel_error = 0.0
        self.max_kappa = 0.0
        self.failures = []

    @property
    def passed(self):
        return not self.failures

    def to_dict(self):
        return {
            "id": self.id,
            "samples": self.samples,
            "max_rel_error": self.max_rel_error,
            "max_kappa": self.max_kappa,
            "tolerance": self.tolerance,
            "failures": self.failures,
            "seed": self.seed,
        }

    def to_json(self):
        return json.dumps(self.to_dict())


# ---------------------------------------------------------------------------
# small helpers


def _jsonable(x):
    """x with complex numbers as [re, im], or as re when the imaginary part
    is negligible (at most 1e-12 (1 + |re|))."""
    if isinstance(x, complex):
        if abs(x.imag) <= 1e-12 * (1.0 + abs(x.real)):
            return x.real
        return [x.real, x.imag]
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return x


def _rel_err(l, r):
    """Worst relative error; a non-finite error counts as inf (a failure)."""
    if isinstance(l, (list, tuple)):
        return max(
            (_rel_err(a, b) for a, b in zip(l, r)), default=0.0
        )
    err = abs(l - r) / max(1.0, abs(l), abs(r))
    return err if math.isfinite(err) else math.inf


def _s(rng, lo=0.1, hi=0.9):
    """Signed magnitude in [lo, hi]."""
    return rng.uniform(lo, hi) * rng.choice([-1.0, 1.0])


def _q(rng):
    return rng.uniform(0.1, 0.9)


def _lower_ok(vals, q):
    """Reject lower parameters near the forbidden set {1, q^-1, q^-2, ...}
    with a margin of 5%, wide enough to keep the series well conditioned.

    The set's points are t_j = 1 divided by q j times (0 < q < 1), for
    j < 80 and t_j <= 1e12.  |v - t_j| < margin t_j puts |v| between
    (1 - margin) t_j and (1 + margin) t_j, so one log of |v| names the j
    to test; each t_j tested is formed by the same j divisions."""
    step = -math.log(q)  # log t_{j+1} - log t_j, up to rounding
    margin = 0.05
    wide, narrow = math.log1p(margin), math.log1p(-margin)
    for v in vals:
        r = abs(v)
        if not 0.0 < r < math.inf:  # 0, inf and nan are never near a t_j
            continue
        log_r = math.log(r)
        first = math.floor((log_r - wide) / step)
        last = min(math.ceil((log_r - narrow) / step), 79)
        if first > last:
            continue
        target = 1.0
        for j in range(last + 1):
            if j >= first and abs(v - target) < margin * target:
                return False
            target /= q
            if target > 1e12:
                break
    return True


def _sum(terms):
    """sum t_i of a side's terms, its amplification sum |t_i| / |sum t_i|
    noted in the conditioning scope as a walk's is."""
    terms = list(terms)
    return _walked(sum(terms), sum(abs(t) for t in terms))[0]


# integer power series in q (lists of ints, index = exponent)


def _times_binomial(prod, j):
    """prod *= 1 + q^j in place, truncated at the length of prod."""
    for i in range(len(prod) - 1, j - 1, -1):
        prod[i] += prod[i - j]


def _divide_binomial(series, j):
    """series /= 1 - q^j in place, truncated at the length of series."""
    for i in range(j, len(series)):
        series[i] += series[i - j]


def _euler_inv_series(m, order):
    """Coefficients of 1/(q^m;q)_oo up to the given order."""
    out = [1] + [0] * order
    for j in range(m, order + 1):
        _divide_binomial(out, j)
    return out


# float/complex power series helpers (truncated, index = power of t)


def _smul(a, b, order):
    out = [0.0j] * (order + 1)
    for i in range(min(len(a), order + 1)):
        if a[i] == 0:
            continue
        for j in range(min(len(b), order + 1 - i)):
            out[i + j] += a[i] * b[j]
    return out


def _sexp(a, order):
    # exp of a series with a[0] = 0, by b' = a' b
    b = [0.0j] * (order + 1)
    b[0] = 1.0
    for n in range(1, order + 1):
        acc = 0.0j
        for k in range(1, min(n, len(a) - 1) + 1):
            acc += k * a[k] * b[n - k]
        b[n] = acc / n
    return b


def _spow(a, e, order):
    # a[0] != 0; c = a^e via n a0 c_n = sum_k (k(e+1) - n) a_k c_{n-k}
    c = [0.0j] * (order + 1)
    c[0] = complex(a[0]) ** e
    for n in range(1, order + 1):
        acc = 0.0j
        for k in range(1, min(n, len(a) - 1) + 1):
            acc += (k * (e + 1.0) - n) * a[k] * c[n - k]
        c[n] = acc / (n * a[0])
    return c


def _euler_plus_series(x, q, order):
    """z-series of (xz;q)_oo: coefficients (-x)^k q^{k(k-1)/2}/(q;q)_k."""
    qq = _qpoch_prefix(q, q, order)
    return [(-x) ** k * q ** (k * (k - 1) / 2.0) / qq[k] for k in range(order + 1)]


def _euler_minus_series(x, q, order):
    """z-series of 1/(xz;q)_oo: coefficients x^k/(q;q)_k."""
    qq = _qpoch_prefix(q, q, order)
    return [x**k / qq[k] for k in range(order + 1)]


# ---------------------------------------------------------------------------
# registry

_REGISTRY = {}


def _add(id, lhs, rhs, sampler, tolerance_class, reference, guarded=False):
    if id in _REGISTRY:
        raise DomainError(f"duplicate identity id {id!r}")
    _REGISTRY[id] = IdentityRecord(
        id, lhs, rhs, sampler, tolerance_class, reference, guarded
    )


# --- binomial theorem chain -------------------------------------------------

_add(
    "q_binomial_theorem",
    lambda p: eval_phi(SeriesSpec([p["a"]], [], p["q"], p["z"])),
    lambda p: qpoch_inf_ratio([p["a"] * p["z"]], [p["z"]], p["q"]),
    lambda rng: {"q": _q(rng), "a": _s(rng), "z": _s(rng)},
    "PRODUCT_SERIES",
    "q-binomial theorem; Gasper & Rahman (1990), Eq. (1.3.2)",
)

_add(
    "q_binomial_terminating",
    lambda p: eval_phi(
        SeriesSpec([p["q"] ** float(-p["n"])], [], p["q"], p["z"])
    ),
    lambda p: qpoch(p["q"] ** float(-p["n"]) * p["z"], p["q"], p["n"]),
    lambda rng: {"q": _q(rng), "n": rng.randrange(0, 13), "z": _s(rng, 0.1, 2.0)},
    "EXACT_TERMINATING",
    "terminating q-binomial theorem",
)

_add(
    "q_exp_product",
    lambda p: e_q(p["z"], p["q"]) * E_q(-p["z"], p["q"]),
    lambda p: 1.0 + 0.0j,
    lambda rng: {"q": _q(rng), "z": _s(rng)},
    "PRODUCT_SERIES",
    "product of the two q-exponentials; Euler",
)


def _eq_base_inverted(p):
    # e_{1/q}(z) summed directly in base 1/q
    q, z = p["q"], p["z"]
    step = lambda t, k: t * z / (1.0 - q ** float(-k))
    terms = accumulate(count(1), step, initial=1.0 + 0.0j)
    return tail_sum(terms, "e_{1/q} tail not reached")[0]


_add(
    "e_q_base_inversion",
    _eq_base_inverted,
    lambda p: E_q(-p["q"] * p["z"], p["q"]),
    lambda rng: {"q": _q(rng), "z": _s(rng, 0.1, 2.0)},
    "PRODUCT_SERIES",
    "base inversion q -> 1/q of the q-exponential",
)


def _jackson(end, s, upper, lower, q, start=None):
    """int_start^end t^s prod_u (ut;q)_oo / prod_l (lt;q)_oo d_qt,
    0 < start < end (from 0 when start is None), by one lattice walk: the
    products are taken at the lattice ends t = end and t = start only, and
    the weight steps by its ratio q^s prod (1 - lt) / prod (1 - ut).  The
    integral from start is int_0^end - int_0^start, the lattice start q^k
    walked with end q^k and its weight negated."""

    def w0(t):
        at_t = [u * t for u in upper], [l * t for l in lower]
        return qpoch_inf_ratio(*at_t, q, log_factor=s * math.log(t))

    def ratio(t):
        num = math.prod((1.0 - l * t for l in lower), start=q**s)
        return num / math.prod(1.0 - u * t for u in upper)

    lattices = [(end, q, w0(end), ratio)]
    if start is not None:
        lattices.append((start, q, -w0(start), ratio))
    ones = lambda t: np.ones((1, len(t)))
    return complex(lattice_gram(ones, *lattices)[0, 0])


_add(
    "euler_chain_gamma",
    lambda p: gamma_q(p["b"], p["q"]),
    # E_q(-(1-q)qt) = ((1-q)qt;q)_oo
    lambda p: _jackson(
        1.0 / (1.0 - p["q"]), p["b"] - 1.0, [(1.0 - p["q"]) * p["q"]], [], p["q"]
    ),
    lambda rng: {"q": _q(rng), "b": rng.uniform(0.3, 3.0)},
    "PRODUCT_SERIES",
    "q-integral representation of the q-gamma function",
)

_add(
    "q_beta_integral",
    lambda p: gamma_q(p["a"], p["q"])
    * gamma_q(p["b"], p["q"])
    / gamma_q(p["a"] + p["b"], p["q"]),
    lambda p: _jackson(1.0, p["b"] - 1.0, [p["q"]], [p["q"] ** p["a"]], p["q"]),
    lambda rng: {"q": _q(rng), "a": rng.uniform(0.3, 3.0), "b": rng.uniform(0.3, 3.0)},
    "PRODUCT_SERIES",
    "q-beta integral; Gasper & Rahman (1990), Eq. (1.11.7)",
)


def _heine_integral_lhs(p):
    q = p["q"]
    return eval_phi(
        SeriesSpec([q ** p["a"], q ** p["b"]], [q ** p["c"]], q, p["z"])
    )


def _heine_integral_rhs(p):
    q, a, b, c, z = p["q"], p["a"], p["b"], p["c"], p["z"]
    pref = gamma_q(c, q) / (gamma_q(b, q) * gamma_q(c - b, q))
    return pref * _jackson(1.0, b - 1.0, [q, z * q**a], [q ** (c - b), z], q)


_add(
    "heine_integral_rep",
    _heine_integral_lhs,
    _heine_integral_rhs,
    lambda rng: {
        "q": _q(rng),
        "a": rng.uniform(0.3, 2.0),
        "b": rng.uniform(0.3, 1.5),
        "c": rng.uniform(0.3, 1.5) + rng.uniform(0.3, 1.5),
        "z": _s(rng),
    },
    "PRODUCT_SERIES",
    "Heine's q-integral representation of 2phi1",
)


def _sample_heine(rng):
    q = _q(rng)
    a, b, c, z = _s(rng), _s(rng), _s(rng), _s(rng)
    if not _lower_ok([c, a * z], q):
        return None
    return {"q": q, "a": a, "b": b, "c": c, "z": z}


_add(
    "heine_transform",
    lambda p: eval_phi(SeriesSpec([p["a"], p["b"]], [p["c"]], p["q"], p["z"])),
    lambda p: qpoch_inf_ratio([p["a"] * p["z"], p["b"]], [p["z"], p["c"]], p["q"])
    * eval_phi(
        SeriesSpec([p["c"] / p["b"], p["z"]], [p["a"] * p["z"]], p["q"], p["b"])
    ),
    _sample_heine,
    "PRODUCT_SERIES",
    "Heine's transformation; Gasper & Rahman (1990), Eq. (1.4.1)",
    guarded=True,
)


def _sample_gauss(rng):
    q = _q(rng)
    a, b = _s(rng, 0.4, 0.9), _s(rng, 0.4, 0.9)
    c = _s(rng, 0.1, 0.85) * abs(a * b)
    if not _lower_ok([c], q):
        return None
    return {"q": q, "a": a, "b": b, "c": c}


_add(
    "q_gauss",
    lambda p: eval_phi(
        SeriesSpec(
            [p["a"], p["b"]], [p["c"]], p["q"], p["c"] / (p["a"] * p["b"])
        )
    ),
    lambda p: qpoch_inf_ratio(
        [p["c"] / p["a"], p["c"] / p["b"]], [p["c"], p["c"] / (p["a"] * p["b"])], p["q"]
    ),
    _sample_gauss,
    "PRODUCT_SERIES",
    "q-Gauss summation; Gasper & Rahman (1990), Eq. (1.5.1)",
)


def _sample_nbc(rng):
    q = _q(rng)
    n, b, c = rng.randrange(0, 13), _s(rng), _s(rng)
    if not _lower_ok([c], q):
        return None
    return {"q": q, "n": n, "b": b, "c": c}


_add(
    "q_vandermonde_terminating",
    lambda p: eval_phi(
        SeriesSpec(
            [p["q"] ** float(-p["n"]), p["b"]],
            [p["c"]],
            p["q"],
            p["c"] * p["q"] ** float(p["n"]) / p["b"],
        )
    ),
    lambda p: qpoch(p["c"] / p["b"], p["q"], p["n"]) / qpoch(p["c"], p["q"], p["n"]),
    _sample_nbc,
    "EXACT_TERMINATING",
    "terminating q-Vandermonde summation",
)

_add(
    "heine_2phi2_transform",
    lambda p: eval_phi(SeriesSpec([p["a"], p["b"]], [p["c"]], p["q"], p["z"])),
    lambda p: qpoch_inf_ratio([p["a"] * p["z"]], [p["z"]], p["q"])
    * eval_phi(
        SeriesSpec(
            [p["a"], p["c"] / p["b"]],
            [p["c"], p["a"] * p["z"]],
            p["q"],
            p["b"] * p["z"],
        )
    ),
    _sample_heine,
    "PRODUCT_SERIES",
    "2phi1 -> 2phi2 contiguous transformation",
    guarded=True,
)


def _sample_q_euler(rng):
    p = _sample_heine(rng)
    return None if p is None or abs(p["a"] * p["b"] * p["z"] / p["c"]) >= 0.95 else p


_add(
    "q_euler_transform",
    lambda p: eval_phi(SeriesSpec([p["a"], p["b"]], [p["c"]], p["q"], p["z"])),
    lambda p: qpoch_inf_ratio([p["a"] * p["b"] * p["z"] / p["c"]], [p["z"]], p["q"])
    * eval_phi(
        SeriesSpec(
            [p["c"] / p["a"], p["c"] / p["b"]],
            [p["c"]],
            p["q"],
            p["a"] * p["b"] * p["z"] / p["c"],
        )
    ),
    _sample_q_euler,
    "PRODUCT_SERIES",
    "Euler-type transformation of 2phi1",
    guarded=True,
)


def _sample_reversal(rng):
    q = _q(rng)
    n, b, c, z = rng.randrange(0, 11), _s(rng), _s(rng), _s(rng)
    if not _lower_ok([c], q):
        return None
    if not _lower_ok([q ** float(-n + 1) / b], q):
        return None
    return {"q": q, "n": n, "b": b, "c": c, "z": z}


def _reversal_spec(p):
    return SeriesSpec([p["q"] ** float(-p["n"]), p["b"]], [p["c"]], p["q"], p["z"])


def _reversed_sum(p):
    spec, prefactor = reverse_terminating(_reversal_spec(p))
    return prefactor * eval_phi(spec)


_add(
    "terminating_reversal",
    lambda p: eval_phi(_reversal_spec(p)),
    _reversed_sum,
    _sample_reversal,
    "EXACT_TERMINATING",
    "order reversal of a terminating 2phi1",
    guarded=True,
)

_add(
    "q_chu_vandermonde",
    lambda p: eval_phi(
        SeriesSpec(
            [p["q"] ** float(-p["n"]), p["b"]], [p["c"]], p["q"], p["q"]
        )
    ),
    lambda p: qpoch(p["c"] / p["b"], p["q"], p["n"])
    * p["b"] ** p["n"]
    / qpoch(p["c"], p["q"], p["n"]),
    _sample_nbc,
    "EXACT_TERMINATING",
    "second terminating q-Chu-Vandermonde summation",
    guarded=True,
)


def _sample_term_3phi2(rng):
    q = _q(rng)
    n, b, c, z = rng.randrange(0, 11), _s(rng), _s(rng), _s(rng)
    if not _lower_ok([c, b * q ** float(1 - n) / c], q):
        return None
    return {"q": q, "n": n, "b": b, "c": c, "z": z}


_add(
    "terminating_3phi2_transform",
    lambda p: eval_phi(
        SeriesSpec(
            [p["q"] ** float(-p["n"]), p["b"]], [p["c"]], p["q"], p["z"]
        )
    ),
    lambda p: qpoch(p["c"] / p["b"], p["q"], p["n"])
    / qpoch(p["c"], p["q"], p["n"])
    * eval_phi(
        SeriesSpec(
            [
                p["q"] ** float(-p["n"]),
                p["b"],
                p["b"] * p["z"] * p["q"] ** float(-p["n"]) / p["c"],
            ],
            [p["b"] * p["q"] ** float(1 - p["n"]) / p["c"], 0],
            p["q"],
            p["q"],
        )
    ),
    _sample_term_3phi2,
    "EXACT_TERMINATING",
    "terminating 2phi1 to 3phi2 transformation",
    guarded=True,
)


def _sample_jackson_3phi2(rng):
    q = _q(rng)
    n, b, c, z = rng.randrange(0, 11), _s(rng), _s(rng), _s(rng)
    if not _lower_ok([c, c * q / (b * z)], q):
        return None
    return {"q": q, "n": n, "b": b, "c": c, "z": z}


_add(
    "jackson_3phi2_transform",
    lambda p: eval_phi(
        SeriesSpec(
            [p["q"] ** float(-p["n"]), p["b"]], [p["c"]], p["q"], p["z"]
        )
    ),
    lambda p: qpoch(
        p["q"] ** float(-p["n"]) * p["b"] * p["z"] / p["c"], p["q"], p["n"]
    )
    * eval_phi(
        SeriesSpec(
            [p["q"] ** float(-p["n"]), p["c"] / p["b"], 0],
            [p["c"], p["c"] * p["q"] / (p["b"] * p["z"])],
            p["q"],
            p["q"],
        )
    ),
    _sample_jackson_3phi2,
    "EXACT_TERMINATING",
    "Jackson's terminating 2phi1 to 3phi2 transformation",
    guarded=True,
)


def _sample_three_term(rng):
    q = _q(rng)
    a, b, c = _s(rng, 0.3, 0.9), _s(rng, 0.3, 0.9), _s(rng, 0.3, 0.9)
    z = _s(rng, 0.3, 0.9)
    if not abs(c * q / (a * b)) < abs(z) < 1.0:
        return None
    if abs(c * q / (a * b * z)) >= 0.9:
        return None
    if not _lower_ok([c, q * q / c, a * q / b], q):
        return None
    for x in (c / q, a * q / c, q / b, b * z / c, c * q / (b * z)):
        if abs(x - 1.0) < 0.02:
            return None
    return {"q": q, "a": a, "b": b, "c": c, "z": z}


def _three_term_lhs(p):
    q, a, b, c, z = p["q"], p["a"], p["b"], p["c"], p["z"]
    num = [a, q / c, c / b, b * z / q, q * q / (b * z)]
    den = [c / q, a * q / c, q / b, b * z / c, c * q / (b * z)]
    coeff = qpoch_inf_ratio(num, den, q)
    return _sum(
        [
            eval_phi(SeriesSpec([a, b], [c], q, z)),
            coeff * eval_phi(SeriesSpec([a * q / c, b * q / c], [q * q / c], q, z)),
        ]
    )


def _three_term_rhs(p):
    q, a, b, c, z = p["q"], p["a"], p["b"], p["c"], p["z"]
    arg = c * q / (a * b * z)
    coeff = qpoch_inf_ratio(
        [a * b * z / c, q / c, a * q / b, arg],
        [b * z / c, q / b, a * q / c, c * q / (b * z)],
        q,
    )
    return coeff * eval_phi(SeriesSpec([a, a * q / c], [a * q / b], q, arg))


_add(
    "three_term_2phi1",
    _three_term_lhs,
    _three_term_rhs,
    _sample_three_term,
    "PRODUCT_SERIES",
    "three-term relation connecting 2phi1 at z and at cq/(abz)",
    guarded=True,
)


def _sample_symmetric_connection(rng):
    q = _q(rng)
    a, b, c = _s(rng, 0.3, 0.9), _s(rng, 0.3, 0.9), _s(rng, 0.3, 0.9)
    z = _s(rng, 0.3, 0.9)
    if abs(q * c / (a * b * z)) >= 0.85 or abs(z) >= 1.0:
        return None
    if not _lower_ok([c, q * a / b, q * b / a], q):
        return None
    # the two right-hand terms grow like 1/(b/a;q)_oo and cancel, so
    # keep the parameter pair well separated
    if abs(b / a - 1.0) < 0.05 or abs(a / b - 1.0) < 0.05:
        return None
    return {"q": q, "a": a, "b": b, "c": c, "z": z}


def _symmetric_connection_lhs(p):
    q, a, b, c, z = p["q"], p["a"], p["b"], p["c"], p["z"]
    return qpoch_inf_ratio([z, q / z], [], q) * eval_phi(SeriesSpec([a, b], [c], q, z))


def _symmetric_connection_term(p, aa, bb):
    q, a, b, c, z = p["q"], p["a"], p["b"], p["c"], p["z"]
    arg = q * c / (a * b * z)
    return (
        qpoch_inf_ratio([aa * z, q / (aa * z), c / aa, bb], [c, bb / aa], q)
        * eval_phi(SeriesSpec([aa, q * aa / c], [q * aa / bb], q, arg))
    )


def _symmetric_connection_rhs(p):
    a, b = p["a"], p["b"]
    return _sum(
        [_symmetric_connection_term(p, a, b), _symmetric_connection_term(p, b, a)]
    )


_add(
    "symmetric_connection",
    _symmetric_connection_lhs,
    _symmetric_connection_rhs,
    _sample_symmetric_connection,
    "PRODUCT_SERIES",
    "symmetrized two-term connection between z and qc/(abz)",
    guarded=True,
)


def _sample_nonterm_gauss(rng):
    q = _q(rng)
    a, b, c = _s(rng), _s(rng), _s(rng)
    if not _lower_ok([c, q * q / c], q):
        return None
    if abs(c / q - 1.0) < 1e-3:
        return None
    return {"q": q, "a": a, "b": b, "c": c}


def _nonterm_gauss_lhs(p):
    q, a, b, c = p["q"], p["a"], p["b"], p["c"]
    coeff = qpoch_inf_ratio([a, b, q / c], [a * q / c, b * q / c, c / q], q)
    return _sum(
        [
            eval_phi(SeriesSpec([a, b], [c], q, q)),
            coeff * eval_phi(SeriesSpec([a * q / c, b * q / c], [q * q / c], q, q)),
        ]
    )


_add(
    "nonterminating_q_gauss",
    _nonterm_gauss_lhs,
    lambda p: qpoch_inf_ratio(
        [p["a"] * p["b"] * p["q"] / p["c"], p["q"] / p["c"]],
        [p["a"] * p["q"] / p["c"], p["b"] * p["q"] / p["c"]],
        p["q"],
    ),
    _sample_nonterm_gauss,
    "PRODUCT_SERIES",
    "nonterminating q-Gauss two-term evaluation",
    guarded=True,
)


def _sample_gauss_integral(rng):
    q = _q(rng)
    a, b = _s(rng), _s(rng)
    c = rng.uniform(q + 0.05, 2.0)
    if not _lower_ok([a * q / c, b * q / c], q):
        return None
    return {"q": q, "a": a, "b": b, "c": c}


def _gauss_integral_lhs(p):
    q, a, b, c = p["q"], p["a"], p["b"], p["c"]
    # (ct, qt;q)_oo / (at, bt;q)_oo over [q/c, 1]
    return _jackson(1.0, 0.0, [c, q], [a, b], q, start=q / c)


_add(
    "q_gauss_integral_form",
    _gauss_integral_lhs,
    lambda p: (1.0 - p["q"])
    * qpoch_inf_ratio(
        [p["a"] * p["b"] * p["q"] / p["c"], p["q"] / p["c"], p["c"], p["q"]],
        [p["a"] * p["q"] / p["c"], p["b"] * p["q"] / p["c"], p["a"], p["b"]],
        p["q"],
    ),
    _sample_gauss_integral,
    "PRODUCT_SERIES",
    "Andrews-Askey q-integral evaluation",
)


def _sample_1psi1(rng):
    q = _q(rng)
    b, c, z = _s(rng, 0.3, 0.9), _s(rng, 0.1, 0.9), _s(rng, 0.3, 0.9)
    if not abs(c / b) < abs(z) < 1.0:
        return None
    # |c/(bz)| near 1 leaves a downward tail too slow for the walk
    if abs(abs(c / (b * z)) - 1.0) < 1e-3 or abs(q / (b * z) - 1.0) < 1e-3:
        return None
    return {"q": q, "b": b, "c": c, "z": z}


_add(
    "ramanujan_1psi1",
    lambda p: eval_psi(SeriesSpec([p["b"]], [p["c"]], p["q"], p["z"])),
    lambda p: qpoch_inf_ratio(
        [p["q"], p["c"] / p["b"], p["b"] * p["z"], p["q"] / (p["b"] * p["z"])],
        [p["c"], p["q"] / p["b"], p["z"], p["c"] / (p["b"] * p["z"])],
        p["q"],
    ),
    _sample_1psi1,
    "PRODUCT_SERIES",
    "Ramanujan's bilateral 1psi1 summation",
    guarded=True,
)


def _sample_0psi1(rng):
    q = _q(rng)
    c, z = _s(rng, 0.1, 0.6), _s(rng, 0.3, 0.9)
    if abs(z) <= abs(c) * 1.1:
        return None
    if abs(c / z - 1.0) < 1e-3:
        return None
    return {"q": q, "c": c, "z": z}


_add(
    "bilateral_0psi1",
    lambda p: eval_psi(SeriesSpec([], [p["c"]], p["q"], p["z"])),
    lambda p: qpoch_inf_ratio(
        [p["q"], p["z"], p["q"] / p["z"]], [p["c"], p["c"] / p["z"]], p["q"]
    ),
    _sample_0psi1,
    "PRODUCT_SERIES",
    "bilateral 0psi1 summation",
    guarded=True,
)

_add(
    "jacobi_triple_product",
    lambda p: eval_psi(SeriesSpec([], [0], p["q"], p["z"])),
    lambda p: qpoch_inf_ratio([p["q"], p["z"], p["q"] / p["z"]], [], p["q"]),
    lambda rng: {"q": _q(rng), "z": _s(rng, 0.2, 2.0)},
    "PRODUCT_SERIES",
    "Jacobi triple product identity",
)


def _sample_saalschutz(rng):
    q = _q(rng)
    n = rng.randrange(0, 11)
    a, b, c = _s(rng), _s(rng), _s(rng)
    other = a * b * q ** float(1 - n) / c
    if not _lower_ok([c, other], q):
        return None
    return {"q": q, "n": n, "a": a, "b": b, "c": c}


_add(
    "q_saalschutz",
    lambda p: eval_phi(
        SeriesSpec(
            [p["a"], p["b"], p["q"] ** float(-p["n"])],
            [
                p["c"],
                p["a"] * p["b"] * p["q"] ** float(1 - p["n"]) / p["c"],
            ],
            p["q"],
            p["q"],
        )
    ),
    lambda p: qpoch_list([p["c"] / p["a"], p["c"] / p["b"]], p["q"], p["n"])
    / qpoch_list([p["c"], p["c"] / (p["a"] * p["b"])], p["q"], p["n"]),
    _sample_saalschutz,
    "EXACT_TERMINATING",
    "q-Saalschutz summation; Gasper & Rahman (1990), Eq. (1.7.2)",
    guarded=True,
)


def _sample_watson(rng, jackson=False):
    q = _q(rng)
    n = rng.randrange(0, 9)
    a = rng.uniform(0.2, 0.9)
    b, c, d = _s(rng, 0.2, 0.9), _s(rng, 0.2, 0.9), _s(rng, 0.2, 0.9)
    if jackson:
        e = a * a * q ** float(n + 1) / (b * c * d)
    else:
        e = _s(rng, 0.2, 0.9)
    s = math.sqrt(a)
    lowers = [
        a * q / b,
        a * q / c,
        a * q / d,
        a * q / e,
        a * q ** float(n + 1),
        s,
        -s,
    ]
    if not _lower_ok(lowers, q):
        return None
    if not jackson and not _lower_ok([d * e * q ** float(-n) / a], q):
        return None
    return {"q": q, "n": n, "a": a, "b": b, "c": c, "d": d, "e": e}


def _phi87(p):
    q, n, a, b, c, d, e = (
        p["q"], p["n"], p["a"], p["b"], p["c"], p["d"], p["e"],
    )
    s = math.sqrt(a)
    return eval_phi(
        SeriesSpec(
            [a, q * s, -q * s, b, c, d, e, q ** float(-n)],
            [s, -s, a * q / b, a * q / c, a * q / d, a * q / e,
             a * q ** float(n + 1)],
            q,
            a * a * q ** float(2 + n) / (b * c * d * e),
        )
    )


def _watson_rhs(p):
    q, n, a, b, c, d, e = (
        p["q"], p["n"], p["a"], p["b"], p["c"], p["d"], p["e"],
    )
    pref = qpoch_list([a * q, a * q / (d * e)], q, n) / qpoch_list(
        [a * q / d, a * q / e], q, n
    )
    return pref * eval_phi(
        SeriesSpec(
            [q ** float(-n), d, e, a * q / (b * c)],
            [a * q / b, a * q / c, d * e * q ** float(-n) / a],
            q,
            q,
        )
    )


_add(
    "watson_transform",
    _phi87,
    _watson_rhs,
    _sample_watson,
    "EXACT_TERMINATING",
    "Watson's 8phi7 to 4phi3 transformation; Gasper & Rahman (1990), Sec. 2.5",
    guarded=True,
)

_add(
    "jackson_8phi7_summation",
    _phi87,
    lambda p: qpoch_list(
        [
            p["a"] * p["q"],
            p["a"] * p["q"] / (p["b"] * p["c"]),
            p["a"] * p["q"] / (p["b"] * p["d"]),
            p["a"] * p["q"] / (p["c"] * p["d"]),
        ],
        p["q"],
        p["n"],
    )
    / qpoch_list(
        [
            p["a"] * p["q"] / p["b"],
            p["a"] * p["q"] / p["c"],
            p["a"] * p["q"] / p["d"],
            p["a"] * p["q"] / (p["b"] * p["c"] * p["d"]),
        ],
        p["q"],
        p["n"],
    ),
    lambda rng: _sample_watson(rng, jackson=True),
    "EXACT_TERMINATING",
    "Jackson's terminating 8phi7 summation; Gasper & Rahman (1990), Sec. 2.6",
    guarded=True,
)

_add(
    "rogers_ramanujan_1",
    lambda p: eval_phi(SeriesSpec([], [0], p["q"], p["q"])),
    lambda p: qpoch_inf_ratio([p["q"] ** 2, p["q"] ** 3, p["q"] ** 5], [], p["q"] ** 5)
    / qpoch(p["q"], p["q"], INFINITY),
    lambda rng: {"q": _q(rng)},
    "PRODUCT_SERIES",
    "first Rogers-Ramanujan identity",
)

_add(
    "rogers_ramanujan_2",
    lambda p: eval_phi(SeriesSpec([], [0], p["q"], p["q"] ** 2)),
    lambda p: qpoch_inf_ratio([p["q"], p["q"] ** 4, p["q"] ** 5], [], p["q"] ** 5)
    / qpoch(p["q"], p["q"], INFINITY),
    lambda rng: {"q": _q(rng)},
    "PRODUCT_SERIES",
    "second Rogers-Ramanujan identity",
)

# --- exercises --------------------------------------------------------------

_add(
    "qpoch_inversion",
    lambda p: qpoch(p["a"], p["q"], p["n"]),
    lambda p: (-p["a"]) ** p["n"]
    * p["q"] ** (p["n"] * (p["n"] - 1) / 2.0)
    * qpoch(p["q"] ** float(1 - p["n"]) / p["a"], p["q"], p["n"]),
    lambda rng: {"q": _q(rng), "a": _s(rng, 0.2, 2.0), "n": rng.randrange(0, 13)},
    "EXACT_TERMINATING",
    "reversal of a finite q-shifted factorial",
)


def _base_doubling_lhs(p):
    q, a, n = p["q"], p["a"], p["n"]
    return (
        qpoch(a, q, 2 * n),
        qpoch(a * a, q * q, n),
        qpoch(a, q, INFINITY),
    )


def _base_doubling_rhs(p):
    q, a, n = p["q"], p["a"], p["n"]
    s = cmath.sqrt(a)
    sq = cmath.sqrt(a * q)
    return (
        qpoch(a, q * q, n) * qpoch(a * q, q * q, n),
        qpoch(a, q, n) * qpoch(-a, q, n),
        qpoch_inf_ratio([s, -s, sq, -sq], [], q),
    )


_add(
    "qpoch_base_doubling",
    _base_doubling_lhs,
    _base_doubling_rhs,
    lambda rng: {"q": _q(rng), "a": _s(rng), "n": rng.randrange(0, 9)},
    "PRODUCT_SERIES",
    "base-doubling and square-root factorizations of q-shifted factorials",
)

_add(
    "euler_odd_distinct",
    lambda p: qpoch(-p["q"], p["q"], INFINITY)
    * qpoch(p["q"], p["q"] ** 2, INFINITY),
    lambda p: 1.0 + 0.0j,
    lambda rng: {"q": _q(rng)},
    "PRODUCT_SERIES",
    "Euler's odd-distinct partition product identity",
)


def _biorthogonality_lhs(p):
    q, n, m = p["q"], p["n"], p["m"]
    total = 0.0 + 0.0j
    for l in range(m - 2, n + 3):
        total += (
            (-1.0) ** (l - m)
            * q ** ((l - m) * (l - m - 1) / 2.0)
            * gamma_q_reciprocal(n - l + 1.0, q)
            * gamma_q_reciprocal(l - m + 1.0, q)
        )
    return total


_add(
    "q_exp_biorthogonality",
    _biorthogonality_lhs,
    lambda p: 1.0 if p["n"] == p["m"] else 0.0,
    lambda rng: {"q": _q(rng), "n": rng.randrange(0, 6), "m": rng.randrange(0, 6)},
    "PRODUCT_SERIES",
    "biorthogonality of the two q-exponentials",
)


def _qpoch_convolution_rhs(p):
    q, a, b, n = p["q"], p["a"], p["b"], p["n"]
    qa, qb = _qpoch_prefix(a, q, n), _qpoch_prefix(b, q, n)
    return _sum(qbinomial(n, k, q) * b**k * qa[k] * qb[n - k] for k in range(n + 1))


_add(
    "qpoch_convolution",
    lambda p: qpoch(p["a"] * p["b"], p["q"], p["n"]),
    _qpoch_convolution_rhs,
    lambda rng: {
        "q": _q(rng),
        "a": _s(rng, 0.2, 1.5),
        "b": _s(rng, 0.2, 1.5),
        "n": rng.randrange(0, 11),
    },
    "EXACT_TERMINATING",
    "q-binomial convolution of shifted factorials",
    guarded=True,
)

# --- partition identities (exact integer coefficient streams) ---------------

_PARTITION_ORDER = 40


def _partition_sum_coeffs(m, half_square, order):
    """Coefficients of sum_k q^{k(k-1)/2 * [half_square]} q^{mk}/(q;q)_k."""
    out = [0] * (order + 1)
    inv = [1] + [0] * order  # 1/(q;q)_k, carried to k + 1 by one division
    k = 0
    while True:
        shift = m * k + (k * (k - 1) // 2 if half_square else 0)
        if shift > order:
            break
        # the shift only grows, so no later k reads past order - shift
        del inv[order + 1 - shift :]
        for i, c in enumerate(inv):
            out[shift + i] += c
        k += 1
        _divide_binomial(inv, k)
    return out


_add(
    "partition_series_all",
    lambda p: tuple(_euler_inv_series(1, _PARTITION_ORDER))
    + tuple(_partition_sum_coeffs(1, False, _PARTITION_ORDER)),
    lambda p: tuple(partition_count(n) for n in range(_PARTITION_ORDER + 1)) * 2,
    lambda rng: {},
    "EXACT_TERMINATING",
    "partition generating function, two expansions, integer-exact",
)

_add(
    "partition_series_min_part",
    lambda p: tuple(_partition_sum_coeffs(p["m"], False, _PARTITION_ORDER)),
    lambda p: tuple(_euler_inv_series(p["m"], _PARTITION_ORDER)),
    lambda rng: {"m": rng.randrange(2, 5)},
    "EXACT_TERMINATING",
    "partitions with all parts >= m, integer-exact",
)


def _euler_plus_int_series(m, order):
    # coefficients of (-q^m;q)_oo
    prod = [1] + [0] * order
    for j in range(m, order + 1):
        _times_binomial(prod, j)
    return prod


_add(
    "partition_series_distinct",
    lambda p: tuple(_partition_sum_coeffs(p["m"], True, _PARTITION_ORDER)),
    lambda p: tuple(_euler_plus_int_series(p["m"], _PARTITION_ORDER)),
    lambda rng: {"m": rng.randrange(1, 5)},
    "EXACT_TERMINATING",
    "distinct-part partitions with parts >= m, integer-exact",
)

# --- classical generating functions (coefficient streams) -------------------

_GF_ORDER = 12


def _gf_hermite_lhs(p):
    x = p["x"]
    return tuple(
        classical_eval("hermite", n, x) / math.factorial(n)
        for n in range(_GF_ORDER + 1)
    )


def _gf_hermite_rhs(p):
    x = p["x"]
    return tuple(_sexp([0.0, 2.0 * x, -1.0], _GF_ORDER))


_add(
    "gen_fn_hermite",
    _gf_hermite_lhs,
    _gf_hermite_rhs,
    lambda rng: {"x": rng.uniform(-2.0, 2.0)},
    "EXACT_TERMINATING",
    "Hermite exponential generating function",
)


def _gf_laguerre_lhs(p):
    return tuple(
        classical_eval("laguerre", n, p["x"], alpha=p["alpha"])
        for n in range(_GF_ORDER + 1)
    )


def _gf_laguerre_rhs(p):
    x, alpha = p["x"], p["alpha"]
    pow_part = _spow([1.0, -1.0], -alpha - 1.0, _GF_ORDER)
    t_over = [0.0] + [1.0] * _GF_ORDER  # t/(1-t)
    exp_part = _sexp([-x * c for c in t_over], _GF_ORDER)
    return tuple(_smul(pow_part, exp_part, _GF_ORDER))


_add(
    "gen_fn_laguerre",
    _gf_laguerre_lhs,
    _gf_laguerre_rhs,
    lambda rng: {"x": rng.uniform(-2.0, 2.0), "alpha": rng.uniform(-0.5, 2.0)},
    "EXACT_TERMINATING",
    "Laguerre generating function",
)


def _gf_jacobi_lhs(p):
    return tuple(
        classical_eval("jacobi", n, p["x"], alpha=p["alpha"], beta=p["beta"])
        for n in range(_GF_ORDER + 1)
    )


def _gf_jacobi_rhs(p):
    x, alpha, beta = p["x"], p["alpha"], p["beta"]
    big_r = _spow([1.0, -2.0 * x, 1.0], 0.5, _GF_ORDER)
    inv_r = _spow(big_r, -1.0, _GF_ORDER)
    a_ser = [big_r[0] + 1.0, big_r[1] - 1.0] + list(big_r[2:])
    b_ser = [big_r[0] + 1.0, big_r[1] + 1.0] + list(big_r[2:])
    out = _smul(
        inv_r,
        _smul(
            _spow(a_ser, -alpha, _GF_ORDER),
            _spow(b_ser, -beta, _GF_ORDER),
            _GF_ORDER,
        ),
        _GF_ORDER,
    )
    scale = 2.0 ** (alpha + beta)
    return tuple(scale * c for c in out)


_add(
    "gen_fn_jacobi",
    _gf_jacobi_lhs,
    _gf_jacobi_rhs,
    lambda rng: {
        "x": rng.uniform(-0.9, 0.9),
        "alpha": rng.uniform(-0.5, 2.0),
        "beta": rng.uniform(-0.5, 2.0),
    },
    "EXACT_TERMINATING",
    "Jacobi generating function",
)

_add(
    "charlier_recurrence",
    lambda p: p["x"]
    * classical_eval("charlier", p["n"], p["x"], a=p["a"]),
    lambda p: -p["a"] * classical_eval("charlier", p["n"] + 1, p["x"], a=p["a"])
    + (p["n"] + p["a"]) * classical_eval("charlier", p["n"], p["x"], a=p["a"])
    - p["n"] * classical_eval("charlier", p["n"] - 1, p["x"], a=p["a"]),
    lambda rng: {
        "n": rng.randrange(1, 9),
        "x": rng.uniform(-3.0, 3.0),
        "a": rng.uniform(0.5, 3.0),
    },
    "EXACT_TERMINATING",
    "Charlier three term recurrence",
)


def _asc_genfn_lhs(p):
    q, c, d, theta = p["q"], p["c"], p["d"], p["theta"]
    z1 = cmath.exp(1j * theta)
    num = _smul(
        _euler_plus_series(c, q, _GF_ORDER),
        _euler_plus_series(d, q, _GF_ORDER),
        _GF_ORDER,
    )
    den = _smul(
        _euler_minus_series(z1, q, _GF_ORDER),
        _euler_minus_series(1.0 / z1, q, _GF_ORDER),
        _GF_ORDER,
    )
    return tuple(_smul(num, den, _GF_ORDER))


def _asc_genfn_rhs(p):
    q, c, d, theta = p["q"], p["c"], p["d"], p["theta"]
    # recurrence evaluation: the series form loses digits past degree 7
    rec = aw_recurrence_table(_GF_ORDER, AWParams(c, d, 0, 0, q))
    values = eval_all(rec, math.cos(theta))[:, 0]
    return tuple(value / qq for value, qq in zip(values, _qpoch_prefix(q, q, _GF_ORDER)))


_add(
    "alsalam_chihara_genfn",
    _asc_genfn_lhs,
    _asc_genfn_rhs,
    lambda rng: {
        # q capped: the degree-12 coefficient stream divides by (q;q)_12,
        # which loses digits as q approaches 1
        "q": min(_q(rng), 0.78),
        "c": _s(rng, 0.2, 0.8),
        "d": _s(rng, 0.2, 0.8),
        "theta": rng.uniform(0.2, 3.0),
    },
    "PRODUCT_SERIES",
    "Al-Salam-Chihara generating function, coefficient stream",
)


def _aw_kernel_lhs(p):
    q, a, b, c, d, theta, n = (
        p["q"], p["a"], p["b"], p["c"], p["d"], p["theta"], p["n"],
    )
    z1 = cmath.exp(1j * theta)
    aw = AWParams(a, b, c, d, q)
    pref = a**n / qpoch_list([a * b, a * c, a * d], q, n)
    kernel = qpoch_inf_ratio([a * c, a * d], [a * z1, a / z1], q)
    return pref * aw_poly(n, math.cos(theta), aw) * kernel


_KERNEL_TERMS = 400


def _kernel_values(rec, x, size, n, a, b, q):
    """(p_n(q^m; a, b; q), P_m(x)) for m = 0, 1, ...: the little q-Jacobi
    polynomial and the recurrence table rec.  Each block of rows takes one
    node walk of little_qjacobi over its q^m and one eval_all on the
    table's leading size rows, and size doubles each time the sum reads
    on.  A real node walk gives each node the bits of its point walk, and
    the recurrence is sequential, so a row of the leading rows has the
    bits of the same row of the whole table."""
    done = 0
    while done < len(rec.b):
        size = min(size, len(rec.b))
        head = Recurrence(rec.s, rec.a[:size], rec.b[:size], rec.c[:size])
        nodes = np.array([q**m for m in range(done, size)])
        yield from zip(little_qjacobi(n, nodes, a, b, q), eval_all(head, x)[done:size, 0])
        done, size = size, 2 * size


def _aw_kernel_rhs(p):
    q, a, b, c, d, theta, n = (
        p["q"], p["a"], p["b"], p["c"], p["d"], p["theta"], p["n"],
    )
    # p_m(x; c, d) by one running recurrence: the 4phi3 for each m loses
    # all its digits by m = 10
    rec = aw_recurrence_table(_KERNEL_TERMS, AWParams(c, d, 0, 0, q))
    # the terms decay like a^m: the first one below TAIL_EPSILON, the quiet
    # run after it, and 6 more, which held the tail at 35 of seeds 0-39
    size = int(math.log(TAIL_EPSILON) / math.log(abs(a))) + 1 + QUIET_TERMS + 6

    def terms():
        qq, f = 1.0 + 0.0j, complex(q)  # (q;q)_m, in the kernel's factor order
        values = _kernel_values(rec, math.cos(theta), size, n, a * b / q, c * d / q, q)
        for m, (lqj, asc) in enumerate(values):
            yield lqj * a**m * asc / qq
            qq *= 1.0 - f
            f *= q

    message = f"kernel series tail not reached within {_KERNEL_TERMS} terms"
    return tail_sum(terms(), message, max_terms=_KERNEL_TERMS)[0]


_add(
    "aw_kernel_transform",
    _aw_kernel_lhs,
    _aw_kernel_rhs,
    lambda rng: {
        "q": rng.uniform(0.2, 0.8),
        "a": rng.uniform(0.2, 0.7),
        "b": _s(rng, 0.2, 0.7),
        "c": _s(rng, 0.2, 0.7),
        "d": _s(rng, 0.2, 0.7),
        "theta": rng.uniform(0.2, 3.0),
        "n": rng.randrange(0, 5),
    },
    "LIMIT_CHAIN",
    "kernel expanding Askey-Wilson polynomials in the two-parameter subfamily",
)


# ---------------------------------------------------------------------------
# public API


def list_identities():
    """Sorted identity ids."""
    return sorted(_REGISTRY)


def get_identity(identity_id):
    if identity_id not in _REGISTRY:
        raise DomainError(f"unknown identity {identity_id!r}")
    return _REGISTRY[identity_id]


def _accepted_draw(rec, rng):
    """(params, lhs, rhs, worst amplification) of the next draw the record
    accepts, trying at most _TRIES candidates."""
    bound = TOLERANCES[rec.tolerance_class] / _ROUNDING
    for _ in range(_TRIES):
        params = rec.sampler(rng)
        if params is None:
            continue
        try:
            with _conditioning_scope() as scope:
                lhs, rhs = rec.lhs(params), rec.rhs(params)
        except QSpecialError:
            if rec.guarded:
                continue
            raise
        if rec.guarded and scope.worst > bound:
            continue
        return params, lhs, rhs, scope.worst
    raise DomainError("sampler failed to find admissible parameters")


def verify(identity_id, samples=25, seed=0, tolerance=None):
    """Sample the identity and compare both sides; deterministic in seed.

    tolerance, when given, overrides the tolerance-class default; the
    draws, and so the conditioning guard, do not depend on it.
    """
    rec = get_identity(identity_id)
    rng = random.Random(f"{identity_id}|{seed}")
    tol = TOLERANCES[rec.tolerance_class] if tolerance is None else tolerance
    report = VerificationReport(
        id=identity_id, samples=samples, seed=seed, tolerance=tol
    )
    for _ in range(samples):
        params, lhs, rhs, kappa = _accepted_draw(rec, rng)
        err = _rel_err(lhs, rhs)
        report.max_rel_error = max(report.max_rel_error, err)
        report.max_kappa = max(report.max_kappa, kappa)
        if err > tol:
            report.failures.append(
                {
                    "params": _jsonable(params),
                    "lhs": _jsonable(lhs),
                    "rhs": _jsonable(rhs),
                }
            )
    return report


def verify_all(samples=25, seed=0, tolerance_overrides=None):
    """Verify every identity; returns the list of reports."""
    overrides = tolerance_overrides or {}
    return [
        verify(i, samples, seed, tolerance=overrides.get(i))
        for i in list_identities()
    ]
