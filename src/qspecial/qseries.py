"""Basic and bilateral hypergeometric series.

r_phi_s(a_1..a_r; b_1..b_s; q, z)
    = sum_{k>=0} (a_1..a_r;q)_k / ((b_1..b_s;q)_k (q;q)_k)
      * ((-1)^k q^{k(k-1)/2})^{1+s-r} z^k

r_psi_s(a_1..a_r; b_1..b_s; q, z)
    = sum_{k in Z} (a_1..a_r;q)_k / (b_1..b_s;q)_k
      * ((-1)^k q^{k(k-1)/2})^{s-r} z^k

Both are walks of the one kernel, kernels.phi_sum, which generates terms
by the forward recurrence on a term ratio rational in q^k (per-term
Pochhammers are never recomputed).  Its ratio has no (q;q)_k of its own:
phi passes q as a lower parameter, and psi is two walks, one each way.

Every walk returns sum |t_k| with its value; inside a _conditioning_scope
it also records the amplification sum |t_k| / |sum t_k|, the condition
number of the sum, for whoever opened the scope.
"""

import cmath
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from qspecial import kernels
from qspecial.errors import ConvergenceError, DomainError
from qspecial.qcore import MAX_TERMS, TAIL_EPSILON, check_q, qpoch_list

_TERMINATION_RTOL = 1e-12
_MAX_TERMINATION_N = 10_000

_SCOPE = ContextVar("qspecial_conditioning_scope", default=None)


class _Scope:
    """The worst amplification of the walks made in one scope; 0 if none."""

    worst = 0.0


@contextmanager
def _conditioning_scope():
    """Yield a _Scope that records every phi and psi walk made inside,
    nested scopes included; outside any, a walk pays one ContextVar.get."""
    scope = _Scope()
    token = _SCOPE.set(scope)
    try:
        yield scope
    finally:
        _SCOPE.reset(token)
        outer = _SCOPE.get()
        if outer is not None:
            outer.worst = max(outer.worst, scope.worst)


def _walked(value, mass):
    """(value, mass) of a walk, its amplification noted in the scope."""
    scope = _SCOPE.get()
    if scope is not None:
        scope.worst = max(scope.worst, mass / max(1e-300, abs(value)))
    return value, mass


@dataclass(frozen=True)
class SeriesSpec:
    """Descriptor of an (r,s) series: upper/lower parameter lists, base, argument."""

    upper: tuple
    lower: tuple
    q: float
    z: complex

    def __init__(self, upper, lower, q, z):
        object.__setattr__(self, "upper", tuple(complex(a) for a in upper))
        object.__setattr__(self, "lower", tuple(complex(b) for b in lower))
        object.__setattr__(self, "q", check_q(q))
        object.__setattr__(self, "z", complex(z))
        for v in self.upper + self.lower + (self.z,):
            if not cmath.isfinite(v):
                raise DomainError(f"series entries must be finite, got {v}")
        for b in self.lower:
            if b == 0:
                continue
            n = _as_negative_power(b, self.q)
            if n is not None and n <= 0:
                raise DomainError(
                    f"lower parameter {b} lies on the forbidden set 1, 1/q, 1/q^2, ..."
                )

    @property
    def r(self):
        return len(self.upper)

    @property
    def s(self):
        return len(self.lower)


@dataclass(frozen=True)
class ConvergenceClass:
    """Convergence classification: INFINITE, UNIT, ZERO, or TERMINATING(n)."""

    radius: str
    n: int | None = None

    def __repr__(self):
        if self.radius == "TERMINATING":
            return f"TERMINATING({self.n})"
        return self.radius


def _as_negative_power(a, q):
    """Return n >= 0 when a is numerically q^{-n}, else None."""
    if a == 0 or a.imag != 0 or a.real <= 0:
        return None
    x = a.real
    if x > 1.0 + 1e-15 or abs(x - 1.0) <= 1e-12:
        n = round(-math.log(x) / math.log(q))
        if 0 <= n <= _MAX_TERMINATION_N and abs(x - q**-n) <= _TERMINATION_RTOL * q**-n:
            return n
    return None


def classify(spec):
    """Classify by termination first, then by the ratio test on (r,s)."""
    best = None
    for a in spec.upper:
        n = _as_negative_power(a, spec.q)
        if n is not None and (best is None or n < best):
            best = n
    if best is not None:
        return ConvergenceClass("TERMINATING", best)
    if spec.r < spec.s + 1:
        return ConvergenceClass("INFINITE")
    if spec.r == spec.s + 1:
        return ConvergenceClass("UNIT")
    return ConvergenceClass("ZERO")


def _kernel_sum(what, upper, lower, q, z, sign_power, n_terms):
    """(value, sum |t_k|) of kernels.phi_sum, its status raised as the
    error of the series named by what."""
    value, status, mass = kernels.phi_sum(
        upper, lower, q, z, sign_power, n_terms, TAIL_EPSILON, MAX_TERMS
    )
    if status == 1:
        raise ConvergenceError(f"{what} tail not reached within max_terms")
    if status == 2:
        raise DomainError(f"{what} hit a zero denominator factor")
    return value, mass


def phi_walk(spec):
    """The r_phi_s series and the sum of |t_k| over the terms it summed.

    Terminating series are summed exactly through k = n; nonterminating
    ones are truncated by the tail rule.  Returns (value, sum |t_k|),
    t_0 = 1 included, so the amplification sum |t_k| / |value| comes with
    the value.  Domain as for eval_phi.
    """
    cls = classify(spec)
    if cls.radius == "TERMINATING":
        n_terms = cls.n
    else:
        if spec.z == 0:
            return _walked(1.0 + 0.0j, 1.0)
        if cls.radius == "ZERO":
            raise DomainError("series has zero radius of convergence for z != 0")
        if cls.radius == "UNIT" and abs(spec.z) >= 1:
            raise DomainError(f"series requires |z| < 1, got |z| = {abs(spec.z)}")
        n_terms = -1
    lower, power = (spec.q,) + spec.lower, 1 + spec.s - spec.r
    value, mass = _kernel_sum("phi series", spec.upper, lower, spec.q, spec.z, power, n_terms)
    return _walked(value, mass)


def eval_phi(spec):
    """Evaluate the r_phi_s series: phi_walk(spec) without its sum |t_k|.

    UNIT class requires |z| < 1, ZERO class requires z = 0; a terminating
    series (an upper parameter q^{-n}) is summed through k = n for any z.
    """
    return phi_walk(spec)[0]


def psi_walk(spec):
    """The bilateral r_psi_s series over k in Z and the sum of |t_k|.

    Both halves are walks of kernels.phi_sum.  The upward one sums
    t_0, t_1, ...; the downward one sums u_j = t_{-j}, reflected into a
    series in q^j: with w = q^{j+1}, each (1 - c / w) factor of the ratio
    is -(c / w)(1 - w / c), so

        u_{j+1} / u_j = z' prod(1 - (q/b) q^j) / prod(1 - (q/a) q^j) (-q^j)^e,
        z' = q^e prod b / (z prod a),

    the products over the upper a and the nonzero lower b, and e the
    number of zero lower parameters; no q^{-k} is formed.  Returns
    (value, sum |t_k|), t_0 counted once, so the amplification
    sum |t_k| / |value| comes with the value.  Domain as for eval_psi.
    """
    if any(a == 0 for a in spec.upper):
        raise DomainError("bilateral series requires nonzero upper parameters")
    if spec.r > spec.s:
        raise DomainError("bilateral series with r > s diverges for every z")
    if spec.z == 0:
        raise DomainError("bilateral series undefined at z = 0")
    inner = math.prod(spec.lower, start=1 + 0j) / math.prod(spec.upper, start=1 + 0j)
    if abs(spec.z) <= abs(inner):
        raise DomainError("outside convergence annulus: need |b1..bs/(a1..ar)| < |z|")
    if spec.s == spec.r and abs(spec.z) >= 1:
        raise DomainError("s = r bilateral series requires |z| < 1")
    q, z, upper, lower = spec.q, spec.z, spec.upper, spec.lower
    nonzero = [b for b in lower if b != 0]
    e = spec.s - len(nonzero)
    up, up_mass = _kernel_sum("bilateral series", upper, lower, q, z, spec.s - spec.r, -1)
    down_z = q**e * math.prod(nonzero, start=1 + 0j) / (z * math.prod(upper, start=1 + 0j))
    reflected = [q / b for b in nonzero], [q / a for a in upper], q, down_z, e
    down, down_mass = _kernel_sum("bilateral series", *reflected, -1)
    return _walked(up + down - 1.0, up_mass + down_mass - 1.0)


def eval_psi(spec):
    """Evaluate the bilateral r_psi_s series over k in Z.

    Convergence annulus: |b_1..b_s / (a_1..a_r)| < |z|, and |z| < 1 when
    s = r; r > s diverges.  Upper parameters must be nonzero (a zero upper
    parameter kills all k < 0 terms; pass the parameter as lower 0
    instead).  Lower parameters may be 0.  An upper parameter q^m, m >= 1,
    is a pole of the k < 0 terms and raises DomainError.
    """
    return psi_walk(spec)[0]


def reverse_terminating(spec):
    """Reverse the order of summation of a terminating (s+1)_phi_s series.

    The spec must have upper[0] = q^{-n} and all other parameters nonzero.
    Returns (reversed_spec, prefactor) with
    prefactor * eval_phi(reversed_spec) = eval_phi(spec).
    """
    cls = classify(spec)
    if cls.radius != "TERMINATING":
        raise DomainError("series is not terminating")
    if spec.r != spec.s + 1:
        raise DomainError("reversal implemented for (s+1)_phi_s shape only")
    n = _as_negative_power(spec.upper[0], spec.q)
    if n is None or n != cls.n:
        raise DomainError("upper[0] must be q^{-n} realizing the termination degree")
    if any(a == 0 for a in spec.upper[1:]) or any(b == 0 for b in spec.lower):
        raise DomainError("zero parameters are not supported in reversal")
    if spec.z == 0:
        raise DomainError("reversal requires z != 0")
    q, z = spec.q, spec.z
    rest = spec.upper[1:]
    prefactor = (
        (-1.0) ** n
        * q ** (-n * (n + 1) / 2)
        * qpoch_list(rest, q, n)
        / qpoch_list(spec.lower, q, n)
        * z**n
    )
    new_upper = [q ** float(-n)] + [q ** float(1 - n) / b for b in spec.lower]
    new_lower = [q ** float(1 - n) / a for a in rest]
    prod_b = 1.0 + 0.0j
    for b in spec.lower:
        prod_b *= b
    prod_a = 1.0 + 0.0j
    for a in rest:
        prod_a *= a
    new_z = q ** float(n + 1) * prod_b / (prod_a * z)
    return SeriesSpec(new_upper, new_lower, q, new_z), prefactor
