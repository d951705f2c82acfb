"""Basic and bilateral hypergeometric series.

r_phi_s(a_1..a_r; b_1..b_s; q, z)
    = sum_{k>=0} (a_1..a_r;q)_k / ((b_1..b_s;q)_k (q;q)_k)
      * ((-1)^k q^{k(k-1)/2})^{1+s-r} z^k

r_psi_s(a_1..a_r; b_1..b_s; q, z)
    = sum_{k in Z} (a_1..a_r;q)_k / (b_1..b_s;q)_k
      * ((-1)^k q^{k(k-1)/2})^{s-r} z^k

Every walk generates terms by the forward recurrence on a term ratio
rational in q^k (per-term Pochhammers are never recomputed).  The ratio
has no (q;q)_k of its own: phi passes q as a lower parameter, and psi is
two walks, one each way.  A series at a point is a walk of the one
kernel, kernels.phi_sum, which runs on floats when z and every parameter
are real.  The ratio tends to z as q^k -> 0; such a real nonterminating
walk with no (-q^k) power goes on with term * z alone once every factor
1 - p q^k rounds to exactly 1, which gives the same bits as the full
ratio.  A terminating phi series whose z or parameters are arrays over
nodes is one numpy walk of the same recurrence at all nodes at once
(_phi_nodes), as the Gram builders take their series tables.  In a spec
over nodes a real array stays float64 and a real number a float, so a
walk over nodes with no complex entry runs in float64: IEEE products and
quotients of doubles are correctly rounded in Python, numpy and C alike,
so each node's value is its point walk's, bit for bit.  (numpy's complex
division is not CPython's, so a complex walk over nodes rounds apart from
the point walk.)

A series terminates only at an upper parameter q^{-n}, by qcore's one rule
(qcore._termination_degree, at a point, at each entry over nodes and for
the lower parameter 1 = q^0 alike); the least such n is found once, when
the SeriesSpec is built.  Any other series is classified by its radius.

Every walk returns sum |t_k| with its value; inside a _conditioning_scope
it also records the amplification sum |t_k| / |sum t_k|, the condition
number of the sum, for whoever opened the scope.
"""

import cmath
import math
from contextlib import contextmanager
from contextvars import ContextVar
from typing import NamedTuple

import numpy as np

from qspecial import kernels
from qspecial.errors import ConvergenceError, DomainError, OutOfRangeError
from qspecial.qcore import (
    _MAX_TERMINATION_N, _NO_DEGREE, MAX_TERMS, TAIL_EPSILON, _double, _termination_degree,
    check_q, qpoch_list,
)

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
    """(value, mass) of a walk, its amplification noted in the scope; for
    a walk over nodes, the worst amplification of its nodes."""
    scope = _SCOPE.get()
    if scope is not None:
        if isinstance(value, np.ndarray):
            kappa = float((mass / np.maximum(1e-300, np.abs(value))).max())
        else:
            kappa = mass / max(1e-300, abs(value))
        scope.worst = max(scope.worst, kappa)
    return value, mass


def _entry(v):
    """An entry of a spec over nodes: an array, float64 when its dtype is
    real and complex otherwise, or a number, float when it is real.  A
    walk over nodes then runs in float64 unless an entry is complex."""
    if isinstance(v, np.ndarray):
        return np.asarray(v, dtype=complex if np.iscomplexobj(v) else float)
    v = complex(v)
    return v if v.imag else v.real


class SeriesSpec:
    """Descriptor of an (r,s) series: upper/lower parameter lists, base,
    argument.  z and the parameters may be numpy arrays over nodes (see
    phi_walk), and then nodes is True; q is one number.  degree is the least
    n of an upper parameter q^{-n}, else _NO_DEGREE; an int array over nodes."""

    __slots__ = ("upper", "lower", "q", "z", "nodes", "degree")

    def __init__(self, upper, lower, q, z):
        nodes = np.ndarray in map(type, upper) or np.ndarray in map(type, lower)
        nodes = nodes or type(z) is np.ndarray
        entry = _entry if nodes else complex
        self.upper = tuple(map(entry, upper))
        self.lower = tuple(map(entry, lower))
        self.q = check_q(q)
        self.z = entry(z)
        self.nodes = nodes
        entries = self.upper + self.lower + (self.z,)
        for v in entries:
            if not (np.isfinite(v).all() if nodes else cmath.isfinite(v)):
                raise DomainError(f"series entries must be finite, got {v}")
        q = self.q
        if nodes:
            shape = np.broadcast(*(v for v in entries if isinstance(v, np.ndarray))).shape
            degree = np.full(shape, _NO_DEGREE)
            for a in self.upper:
                degree = np.minimum(degree, _entry_degrees(a, q))
        else:  # a loop, not min(): this is the top self-time of point evaluations
            degree = _NO_DEGREE
            for a in self.upper:
                n = _termination_degree(a, q)
                if n < degree:
                    degree = n
        self.degree = degree
        # b = 1 makes the first factor 1 - b of (b;q)_k vanish; a lower
        # parameter at 1/q, 1/q^2, ... raises when the walk reaches its zero
        for b in self.lower:
            if np.any(_entry_degrees(b, q) == 0) if nodes else _termination_degree(b, q) == 0:
                raise DomainError(f"lower parameter {b} is 1 within rounding")

    @property
    def r(self):
        return len(self.upper)

    @property
    def s(self):
        return len(self.lower)


class ConvergenceClass(NamedTuple):
    """Convergence classification: INFINITE, UNIT, ZERO, or TERMINATING(n)."""

    radius: str
    n: int | None = None

    def __repr__(self):
        if self.radius == "TERMINATING":
            return f"TERMINATING({self.n})"
        return self.radius


def _entry_degrees(a, q):
    """_termination_degree at each entry of an array entry of a spec over
    nodes, as an int array of its shape, or at a number."""
    if isinstance(a, np.ndarray):
        degrees = [_termination_degree(v, q) for v in a.ravel().tolist()]
        return np.array(degrees, dtype=int).reshape(a.shape)
    return _termination_degree(a, q)


def _one_point(spec):
    """DomainError for a spec with array entries: classify, and so
    reverse_terminating, and psi_walk take one point."""
    if spec.nodes:
        raise DomainError("array entries are for phi_walk only")


def classify(spec):
    """Classify by termination first, then by the ratio test on (r,s)."""
    _one_point(spec)
    if spec.degree <= _MAX_TERMINATION_N:
        return ConvergenceClass("TERMINATING", spec.degree)
    if spec.r < spec.s + 1:
        return ConvergenceClass("INFINITE")
    if spec.r == spec.s + 1:
        return ConvergenceClass("UNIT")
    return ConvergenceClass("ZERO")


def _kernel_sum(what, upper, lower, q, z, sign_power, n_terms):
    """(value, sum |t_k|) of kernels.phi_sum, its status raised as the
    error of the series named by what: ConvergenceError, DomainError (a
    zero denominator) or OutOfRangeError (a term that overflowed)."""
    value, status, mass = kernels.phi_sum(
        upper, lower, q, z, sign_power, n_terms, TAIL_EPSILON, MAX_TERMS
    )
    if status == 1:
        raise ConvergenceError(f"{what} tail not reached within max_terms")
    if status == 2:
        raise DomainError(f"{what} hit a zero denominator factor")
    if status == 3:
        raise OutOfRangeError(f"{what} has a term outside the double range")
    return value, mass


def _phi_nodes(spec):
    """phi_walk of a spec with array entries: kernels.phi_sum's loop, its
    terms, factor order and (-q^k)^(1+s-r), at every node at once.

    Each node sums through k = n, n the spec's degree at that node; a node
    with none raises DomainError.  When no entry is complex the walk runs
    in float64, as the kernel runs a real walk on floats, so each node's
    value and sum |t_k| are its point walk's bits.  Overflow gives inf or
    nan, with no numpy warning, so that the lattice walk can name the
    node; a zero denominator at a node still summing raises DomainError."""
    q, upper, stop = spec.q, spec.upper, spec.degree
    if (stop > _MAX_TERMINATION_N).any():
        raise DomainError("a series over nodes must terminate at every node")
    lower, power = (q,) + spec.lower, 1 + spec.s - spec.r
    first, last = int(stop.min()), int(stop.max())
    total, term, mass, qk = np.ones(stop.shape), 1.0, np.ones(stop.shape), 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(last):
            # scalar factors stay Python numbers, in the kernel's order
            num = spec.z
            for a in upper:
                num = num * (1.0 - a * qk)
            den = 1.0
            for b in lower:
                den = den * (1.0 - b * qk)
            if power:
                num = num * (-qk) ** power
            if k >= first:  # the nodes that stopped add terms of 0
                live = k < stop
                num, den = np.where(live, num, 0.0), np.where(live, den, 1.0)
            if not (den.all() if isinstance(den, np.ndarray) else den):
                raise DomainError("phi series hit a zero denominator factor")
            term = term * num / den
            total = total + term  # complex from the first term of a complex walk
            mass += np.abs(term)
            qk *= q
        return _walked(total, mass)


def phi_walk(spec):
    """The r_phi_s series and the sum of |t_k| over the terms it summed.

    Terminating series are summed exactly through k = n; nonterminating
    ones are truncated by the tail rule.  Returns (value, sum |t_k|),
    t_0 = 1 included, so the amplification sum |t_k| / |value| comes with
    the value.  Domain as for eval_phi.  A spec with array entries must
    terminate at every node; its value and sum |t_k| are arrays over the
    nodes, summed in one numpy walk.
    """
    if spec.nodes:
        return _phi_nodes(spec)
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
    series (an upper parameter q^{-n}) is summed through k = n for any z,
    and may have array entries (an array of values comes back).
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
    sum |t_k| / |value| comes with the value.  Domain as for eval_psi;
    OutOfRangeError where the sum of the halves leaves the double range.
    """
    _one_point(spec)
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
    value = _double(up + down - 1.0, "bilateral series")
    return _walked(value, up_mass + down_mass - 1.0)


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
    n = cls.n
    if _termination_degree(spec.upper[0], spec.q) != n:
        raise DomainError("upper[0] must be q^{-n} realizing the termination degree")
    if any(a == 0 for a in spec.upper[1:]) or any(b == 0 for b in spec.lower):
        raise DomainError("zero parameters are not supported in reversal")
    if spec.z == 0:
        raise DomainError("reversal requires z != 0")
    q, z = spec.q, spec.z
    rest = spec.upper[1:]
    lower = qpoch_list(spec.lower, q, n)
    if lower == 0:
        raise DomainError("reversal: a lower (b;q)_n vanishes")
    prefactor = (-1.0) ** n * q ** (-n * (n + 1) / 2) * qpoch_list(rest, q, n) / lower * z**n
    new_upper = [q ** float(-n)] + [q ** float(1 - n) / b for b in spec.lower]
    new_lower = [q ** float(1 - n) / a for a in rest]
    prod_b, prod_a = math.prod(spec.lower, start=1 + 0j), math.prod(rest, start=1 + 0j)
    new_z = q ** float(n + 1) * prod_b / (prod_a * z)
    return SeriesSpec(new_upper, new_lower, q, new_z), prefactor
