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
It is bilinear, with no conjugate.  On geometric lattices (Jackson
q-integrals) the nodes are walked in chunks, the weight steps by its
rational ratio w(step x)/w(x), each node carries its Jackson mass (1-q) x,
and the walk, which the catalog's q-integrals also take, ends by the tail
rule of qcore.tail_sum applied to every entry.  One walk takes every
lattice of a measure: the two ends c q^k and -d q^k of big q-Jacobi's
int_{-d}^{c}, or the two half-lines q^k and q^{-k} of Moak's bilateral
q-integral.  Each lattice keeps its own ratio, weights, mass 1 - q and
stop (the tail rule over its own entries), and its sign rides on its
first weight, so the walk returns the sum of the Grams its lattices would
give alone.

The walk evaluates its nodes in passes, one numpy pass for all lattices
each; a pass after the first holds a quarter of the nodes a tail decaying
like step^k needs.  A lattice toward 0 (step < 1) asks its first pass for
the nodes its own decay rate r = step |ratio(0)| needs: a tail decaying
like r^k has its first term below eps at node k = floor(log eps / log r)
+ 1, and the quiet run of QUIET_TERMS nodes follows, plus one chunk for
the few nodes more that its entries need beyond the rate at 0.  The first
pass takes the most any lattice asks, so a lattice away from 0 (Moak's
up-half, which gets no rate) rides on its partner's, and such a walk
mostly ends in one pass.  Chunking never changes which nodes are summed
or the order of the products.
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
    a chunk costs the same however long the walk has been.  The entries
    fall into groups (the lattices of one walk): column j belongs to group
    j % groups, and each group stops at the max over its own entries."""

    def __init__(self, eps, groups=1):
        self.eps, self.groups, self.walked = eps, groups, 0
        # per entry from the first chunk on; stop is 0 until the rule is met
        self.scale = self.quiet = self.stop = 0
        # per group: the nodes it sums once met, and its first non-finite one
        self.lengths, self.bad = [None] * groups, [None] * groups

    def feed(self, mags):
        """Nodes summed once every group has met the rule (the largest of
        lengths), else None.  OutOfRangeError if a node that a group sums
        has a non-finite entry, raised once every group before it has met
        the rule, so the error names the node a walk of that group alone
        would name."""
        top = np.maximum.accumulate(mags, axis=0)
        scale = np.maximum(top, self.scale) if self.walked else top
        small = mags < self.eps * np.maximum(scale, 1e-300)
        rows = np.arange(len(mags))[:, None]
        loud = np.maximum.accumulate(np.where(small, -1 - self.quiet, rows), axis=0)
        quiet = rows - loud  # quiet nodes in a row, the carried run included
        met = quiet >= QUIET_TERMS
        first = self.walked + met.argmax(axis=0) + 1
        self.stop = np.where((self.stop == 0) & met.any(axis=0), first, self.stop)
        start, self.walked = self.walked, self.walked + len(mags)
        self.scale, self.quiet = scale[-1], quiet[-1]
        stops = self.stop.reshape(-1, self.groups)
        done, ends = stops.all(axis=0).tolist(), stops.max(axis=0).tolist()
        self.lengths = [end if met else None for end, met in zip(ends, done)]
        # the maximum carries NaN, so one row shows whether any entry is not finite
        if not np.isfinite(top[-1]).all():
            for g in (g for g in range(self.groups) if self.bad[g] is None):
                # a group that met the rule in an earlier chunk sums none of these
                summed = mags[: max(0, (self.lengths[g] or self.walked) - start), g :: self.groups]
                bad = ~np.isfinite(summed).all(axis=1)
                if bad.any():
                    self.bad[g] = start + int(bad.argmax())
        for length, bad in zip(self.lengths, self.bad):
            if bad is not None:
                raise OutOfRangeError(f"Gram entry overflows the double range at node {bad}")
            if length is None:
                return None
        return max(self.lengths)


def lattice_gram(values, *lattices):
    """The sum over lattices of sum_k (1-q) x_k w(x_k) V(x_k) V(x_k)^T over
    x_k = x0 step^k, every lattice of one measure walked together.

    Each lattice = (x0, step, w(x0), ratio(x) = w(step x)/w(x)) with its
    own q = min(step, 1/step): step = q gives qintegral_0a to x0 of every
    p_n p_m w, x0 = step = 1/q the upper half of qintegral_0inf.  A lattice
    with w(x0) negated is subtracted, exactly, since a - b == a + (-b) in
    floating point: int_{-d}^{c} is the lattices c q^k and -d q^k, the
    second with its w(-d) negated.  values(x) gives the (N+1, len(x))
    values at a flat array of nodes, each evaluated once; a pass evaluates
    the nodes of all lattices in one call.  Each lattice keeps its own
    weights, its own mass 1 - q and its own stop: it sums as many nodes as
    its entry with the slowest tail needs, so its Gram is the one a walk of
    that lattice alone gives.  A weight below the double range is carried
    as w 2^s, and 2^(-s/2) moves into each value at its node
    (_scaled_weights), so the walk ends by its terms, not by an underflow.
    OutOfRangeError, naming the node, once a summed entry overflows.
    """
    count = len(lattices)
    x_next, steps, w_next, ratios = zip(*lattices)
    x_next, steps, w_next = np.array(x_next), np.array(steps), np.array(w_next)
    mass = 1.0 - np.minimum(steps, 1.0 / steps)
    # a quarter of the nodes a tail decaying like step^k needs
    chunk = max(8, *(int(math.log(TAIL_EPSILON) / -abs(math.log(s))) // 4 for s in steps))
    # a down-walk's first pass runs one chunk past the nodes its decay asks
    # for; the pass serves the lattice that asks for most
    size = max((_first_chunk(s, f) or 0) for s, f in set(zip(steps, ratios))) + chunk
    vs, us = [], []
    rule = _TailRule(TAIL_EPSILON, count)
    shift = np.zeros(count, dtype=int)
    while True:
        if rule.walked >= MAX_TERMS:
            raise ConvergenceError("q-integral tail not reached within max_terms")
        size = min(size, MAX_TERMS - rule.walked)
        # nodes, weights, values and magnitudes past a lattice's stop may
        # overflow to inf or nan; feed raises OutOfRangeError for any such
        # node it sums, so numpy need not warn.  The magnitudes are formed
        # in the order gram multiplies, so v^2 cannot overflow where v u is
        # finite.
        with np.errstate(over="ignore", invalid="ignore"):
            x = np.empty((count, size))
            x[:, 0], x[:, 1:] = x_next, steps[:, None]
            np.cumprod(x, axis=1, out=x)
            # r[l, k] = w(x[l, k+1]) / w(x[l, k]); the last steps past the pass
            r = np.array([f(row) for f, row in zip(ratios, x)])
            factors = np.concatenate((w_next[:, None], r[:, :-1]), axis=1)
            w, shifts = _scaled_weights(factors, shift)
            x_next, w_next, shift = x[:, -1] * steps, w[:, -1] * r[:, -1], shifts[:, -1]
            u = mass[:, None] * x * w
            v = values(x.ravel()).reshape(-1, count, size)
            if shifts.any():
                v = v * np.ldexp(1.0, -shifts // 2)
            mags = np.abs(v[:, None] * (v[None] * u)).reshape(-1, size).T
        if rule.feed(mags) is None:
            vs.append(v)
            us.append(u)
            size = chunk
            continue
        if vs:
            v, u = np.concatenate(vs + [v], axis=2), np.concatenate(us + [u], axis=1)
        grams = [gram(v[:, k, :n], u[k, :n]) for k, n in enumerate(rule.lengths)]
        return sum(grams[1:], grams[0])


def _scaled_weights(factors, shift):
    """The weights w_k = cumprod(factors) 2^-shift (shift even) along each
    row (lattice) as (w_k 2^s_k, s_k).  s_k = shift while cumprod(factors)
    stays above 2^-900; further on, s_k is the even exponent that keeps
    w_k 2^s_k near 1, so that a weight below the double range keeps its
    digits.  Scaling by a power of 2 is exact, so where the plain product
    stays in range these are its own bits.  A zero factor zeroes every
    weight after it."""
    w = np.cumprod(factors, axis=1)
    if (np.abs(w) >= 2.0**-900).all():
        return w, shift[:, None]  # one column: the shift of every node
    with np.errstate(divide="ignore"):
        logs = np.cumsum(np.log2(np.abs(factors)), axis=1)
    deep = np.isfinite(logs) & (logs < -900)
    s = shift[:, None] + 2 * np.where(deep, np.round(-logs / 2), 0).astype(int)
    steps = np.ldexp(1.0, np.diff(s, axis=1, prepend=shift[:, None]))
    return np.cumprod(factors * steps, axis=1), s


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
