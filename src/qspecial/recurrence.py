"""Three term recurrences for all degrees at once, and Gram matrices.

A family's recurrence

    s x p_k = A_k p_{k+1} + B_k p_k + C_k p_{k-1},   p_{-1} = 0, p_0 = 1,

is held as its coefficient arrays for k = 0..N-1.  Each family forms them
from closed forms in Q = q^k, all degrees in one numpy pass with no
q-Pochhammer per degree (askey_wilson.aw_recurrence_table,
qorthopoly.big_qjacobi_recurrence_table and the Moak table), and eval_all
runs the recurrence at every point in one numpy pass.  The families whose
Grams take series values build the same (degrees x nodes) array with one
series walk (qseries.phi_walk), a column of degrees against the row of
nodes.

A Gram matrix is G = V diag(w) V^T over a measure's nodes and weights:
V holds the values of degrees 0..N (one row per degree), w the weights.
It is bilinear, with no conjugate.  On a geometric lattice (a Jackson
q-integral) the nodes are walked in chunks, the weight steps by its
rational ratio w(step x)/w(x), each node carries its Jackson mass (1-q) x,
and the walk, which the catalog's q-integrals also take, ends by the tail
rule of qcore.tail_sum applied to every entry.

The walk evaluates its nodes in chunks, one numpy pass each; a chunk
holds a quarter of the nodes a tail decaying like step^k needs.  A walk
toward 0 (step < 1) adds to its first chunk the nodes its own decay rate
r = step |ratio(0)| asks for: a tail decaying like r^k has its first term
below eps at node k = floor(log eps / log r) + 1, and the quiet run of
QUIET_TERMS nodes follows.  The chunk past those covers the few nodes
more that a walk's entries need beyond the rate at 0, so such a walk
mostly ends in one pass.  A walk away from 0, or with r outside (0, 1),
takes plain chunks.  Chunking never changes which nodes are summed or the
order of the products.
"""

import math
from typing import NamedTuple

import numpy as np

from qspecial.errors import ConvergenceError, OutOfRangeError
from qspecial.qcore import MAX_TERMS, QUIET_TERMS, TAIL_EPSILON


class Recurrence(NamedTuple):
    """Coefficients of s x p_k = A_k p_{k+1} + B_k p_k + C_k p_{k-1},
    k = 0..N-1; C_0 is unused."""

    s: float
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


def eval_all(rec, x):
    """Values p_0..p_N at every point of x, as an (N+1, len(x)) array."""
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    out = np.empty((len(rec.b) + 1, len(x)), dtype=complex)
    out[0] = 1.0
    prev = np.zeros_like(x)
    sx = rec.s * x
    for k in range(len(rec.b)):
        out[k + 1] = ((sx - rec.b[k]) * out[k] - rec.c[k] * prev) / rec.a[k]
        prev = out[k]
    return out


def gram(v, w):
    """V diag(w) V^T for values v (degrees x nodes) and weights w."""
    # einsum, not @: a complex matmul loads BLAS kernels, about 0.4 MB of
    # resident memory, for matrices this small
    return np.einsum("nk,mk->nm", v * w, v)


class _TailRule:
    """The rule of qcore.tail_sum for every entry of a walk at once, fed
    one chunk of node magnitudes (nodes x entries) at a time.  Each entry
    keeps its running maximum, its quiet run and the nodes it needed, so
    a chunk costs the same however long the walk has been."""

    def __init__(self, eps):
        self.eps, self.walked = eps, 0
        # per entry from the first chunk on; stop is 0 until the rule is met
        self.scale = self.quiet = self.stop = 0

    def feed(self, mags):
        """Nodes summed once every entry has met the rule, else None.
        OutOfRangeError if a node to be summed has a non-finite entry."""
        scale = np.maximum(np.maximum.accumulate(mags, axis=0), self.scale)
        small = mags < self.eps * np.maximum(scale, 1e-300)
        rows = np.arange(len(mags))[:, None]
        loud = np.maximum.accumulate(np.where(small, -1 - self.quiet, rows), axis=0)
        quiet = rows - loud  # quiet nodes in a row, the carried run included
        met = quiet >= QUIET_TERMS
        first = self.walked + met.argmax(axis=0) + 1
        self.stop = np.where((self.stop == 0) & met.any(axis=0), first, self.stop)
        start, self.walked = self.walked, self.walked + len(mags)
        self.scale, self.quiet = scale[-1], quiet[-1]
        length = int(self.stop.max()) if self.stop.all() else None
        bad = ~np.isfinite(mags[: (length or self.walked) - start]).all(axis=1)
        if bad.any():
            raise OutOfRangeError(
                f"Gram entry overflows the double range at node {start + bad.argmax()}"
            )
        return length


def lattice_gram(values, lattice):
    """sum_k (1-q) x_k w(x_k) V(x_k) V(x_k)^T over x_k = x0 step^k.

    lattice = (x0, step, w(x0), ratio(x) = w(step x)/w(x)) and q =
    min(step, 1/step): step = q gives qintegral_0a to x0 of every p_n p_m w,
    x0 = step = 1/q the upper half of qintegral_0inf.  values(x) gives the
    (N+1, len(x)) values at an array of nodes, each evaluated once; the walk
    sums as many nodes as the entry with the slowest tail needs.  A weight
    below the double range is carried as w 2^s, and 2^(-s/2) moves into
    each value at its node (_scaled_weights), so the walk ends by its
    terms, not by an underflow.  OutOfRangeError, naming the node, once a
    summed entry overflows.
    """
    x_next, step, w_next, ratio = lattice
    mass = 1.0 - min(step, 1.0 / step)
    # a quarter of the nodes a tail decaying like step^k needs
    chunk = max(8, int(math.log(TAIL_EPSILON) / -abs(math.log(step))) // 4)
    # a down-walk's first pass runs one chunk past the nodes its decay asks for
    size = (_first_chunk(step, ratio) or 0) + chunk
    us, vs = [], []
    rule = _TailRule(TAIL_EPSILON)
    shift = 0
    while True:
        if rule.walked >= MAX_TERMS:
            raise ConvergenceError("q-integral tail not reached within max_terms")
        size = min(size, MAX_TERMS - rule.walked)
        x = np.full(size, step)
        x[0] = x_next
        np.cumprod(x, out=x)
        r = ratio(x)  # r[k] = w(x[k+1]) / w(x[k]); the last steps past the pass
        w, shifts = _scaled_weights(np.concatenate(([w_next], r[:-1])), shift)
        x_next, w_next, shift = x[-1] * step, w[-1] * r[-1], shifts[-1]
        us.append(mass * x * w)
        # values and magnitudes at nodes past the stop may overflow to inf
        # or nan; feed raises OutOfRangeError for any such node it sums, so
        # numpy need not warn.  The magnitudes are formed in the order gram
        # multiplies, so v^2 cannot overflow where v u is finite.
        with np.errstate(over="ignore", invalid="ignore"):
            v = values(x)
            if shifts.any():
                v = v * np.ldexp(1.0, -shifts // 2)
            mags = np.abs(v[:, None, :] * (v[None, :, :] * us[-1])).reshape(-1, size).T
        vs.append(v)
        length = rule.feed(mags)
        if length is not None:
            v = np.concatenate(vs, axis=1)[:, :length]
            return gram(v, np.concatenate(us)[:length])
        size = chunk


def _scaled_weights(factors, shift):
    """The weights w_k = cumprod(factors) 2^-shift (shift even) as
    (w_k 2^s_k, s_k).  s_k = shift while cumprod(factors) stays above
    2^-900; further on, s_k is the even exponent that keeps w_k 2^s_k near
    1, so that a weight below the double range keeps its digits.  Scaling
    by a power of 2 is exact, so where the plain product stays in range
    these are its own bits.  A zero factor zeroes every weight after it."""
    w = np.cumprod(factors)
    if (np.abs(w) >= 2.0**-900).all():
        return w, np.full(len(w), shift)
    with np.errstate(divide="ignore"):
        logs = np.cumsum(np.log2(np.abs(factors)))
    deep = np.isfinite(logs) & (logs < -900)
    s = shift + 2 * np.where(deep, np.round(-logs / 2), 0).astype(int)
    return np.cumprod(factors * np.ldexp(1.0, np.diff(s, prepend=shift))), s


def _first_chunk(step, ratio):
    """The nodes a down-walk (step < 1) needs when its terms decay like r^k,
    r = step |w(step x)/w(x)| at x = 0: through the quiet run from the first
    node below eps = TAIL_EPSILON, k = floor(log eps / log r) + 1.  None for
    an up-walk, or r not in (0, 1)."""
    if step >= 1.0:
        return None
    r = step * abs(ratio(np.zeros(1))[0])
    if not 0.0 < r < 1.0:
        return None
    return int(math.log(TAIL_EPSILON) / math.log(r)) + 1 + QUIET_TERMS
