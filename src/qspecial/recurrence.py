"""Three term recurrences for all degrees at once, and Gram matrices.

A family's recurrence

    s x p_k = A_k p_{k+1} + B_k p_k + C_k p_{k-1},   p_{-1} = 0, p_0 = 1,

is held as its coefficient arrays for k = 0..N-1, built once per call.
eval_all runs it at every point in one numpy pass.

A Gram matrix is G = V diag(w) V^T over a measure's nodes and weights:
V holds the values of degrees 0..N (one row per degree), w the weights.
It is bilinear, with no conjugate.  On a geometric lattice (a Jackson
q-integral) the nodes are walked in chunks, the weight steps by its
rational ratio w(step x)/w(x), and the walk ends by the tail rule of
qcore.tail_sum applied to every entry.
"""

import math
from typing import NamedTuple

import numpy as np

from qspecial.errors import ConvergenceError, OutOfRangeError
from qspecial.qcore import QUIET_TERMS


class Recurrence(NamedTuple):
    """Coefficients of s x p_k = A_k p_{k+1} + B_k p_k + C_k p_{k-1},
    k = 0..N-1; C_0 is unused."""

    s: float
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


def from_terms(terms, s=1.0):
    """Recurrence from the triples (A_k, B_k, C_k), k = 0..N-1."""
    coeffs = np.array(list(terms), dtype=complex).reshape(-1, 3)
    return Recurrence(s, coeffs[:, 0], coeffs[:, 1], coeffs[:, 2])


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
        if not np.isfinite(mags[: (length or self.walked) - start]).all():
            raise OutOfRangeError("Gram entry overflows the double range")
        return length


def lattice_gram(values, a, start, step, w0, ratio, pol):
    """sum_k w(x_k) j_k V(x_k) V(x_k)^T over x_k = a j_k, j_k = start step^k.

    With start = 1, step = q this is qintegral_0a of every product
    p_n p_m w without its factor a(1-q); with start = step = 1/q it is
    the upper half of qintegral_0inf.  values(x) gives the (N+1, len(x))
    values at an array of nodes, w0 = w(a start) and ratio(x) =
    w(step x)/w(x).  Each node is evaluated once; the walk sums as many
    nodes as the entry with the slowest tail needs.  OutOfRangeError
    once an entry overflows.
    """
    # a quarter of the nodes a tail decaying like step^k needs
    chunk = max(8, int(math.log(pol.tail_epsilon) / -abs(math.log(step))) // 4)
    us, vs = [], []
    rule = _TailRule(pol.tail_epsilon)
    j_next, w_next = start, w0
    while True:
        if rule.walked >= pol.max_terms:
            raise ConvergenceError("q-integral tail not reached within max_terms")
        size = min(chunk, pol.max_terms - rule.walked)
        j = np.cumprod(np.r_[j_next, np.full(size - 1, step)])
        x = a * j
        w = np.cumprod(np.r_[w_next, ratio(x[:-1])])
        j_next, w_next = j[-1] * step, w[-1] * ratio(x[-1:])[0]
        v = values(x)
        us.append(w * j)
        vs.append(v)
        # nodes past the stop may overflow to inf or nan here; feed raises
        # OutOfRangeError for any such node it sums, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            mags = np.abs(v[:, None, :] * v[None, :, :] * us[-1]).reshape(-1, size).T
        length = rule.feed(mags)
        if length is not None:
            v = np.concatenate(vs, axis=1)[:, :length]
            return gram(v, np.concatenate(us)[:length])
