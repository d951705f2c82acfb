"""Tests for the Jackson lattice walk of qspecial.recurrence.

Oracle: one gram call over the same nodes, up to the stop the tail rule
finds over one pass of them.  The size of a pass only decides how many
nodes the walk evaluates, so the walk must match it bit for bit, in one
pass or in several.
"""

import random

import numpy as np
import pytest

from qspecial import identities, qorthopoly, recurrence
from qspecial.errors import ConvergenceError, OutOfRangeError
from qspecial.qcore import TAIL_EPSILON
from qspecial.qorthopoly import BigQJacobiParams, big_qjacobi_gram_matrix
from qspecial.recurrence import _tail_lengths, gram, lattice_gram

README_BQJ = BigQJacobiParams(0.95, 0.3, 0.855, 1.0, 0.9)


def _one_gram(values, lattice, nodes):
    """The first nodes of the lattice and their weights in one pass,
    summed by one gram call up to the stop of the tail rule."""
    x0, step, w0, ratio = lattice
    x = np.cumprod(np.r_[x0, np.full(nodes - 1, step)])
    w = np.cumprod(np.r_[w0, ratio(x[:-1])])
    u = (1.0 - min(step, 1.0 / step)) * x * w
    v = values(x)
    mags = np.abs(v[:, None, :] * v[None, :, :] * u).reshape(-1, nodes).T
    (length,) = _tail_lengths(mags, TAIL_EPSILON)
    return gram(v[:, :length], u[:length])


def _recorded_walks(monkeypatch, module, run):
    """One record per lattice_gram call that run() makes through module:
    its arguments, its result, the passes and nodes it evaluated, and the
    size of its last pass."""
    walks = []

    def recording(values, *lattices):
        walk = {"passes": 0, "nodes": 0}

        def counted(x):
            walk["passes"] += 1
            walk["nodes"] += len(x)
            walk["last"] = len(x) // len(lattices)
            return values(x)

        walks.append(walk)
        walk.update(values=values, lattices=lattices)
        walk["result"] = lattice_gram(counted, *lattices)
        return walk["result"]

    monkeypatch.setattr(module, "lattice_gram", recording)
    run()
    return walks


def _check(walks, lattices, passes=1):
    # one walk over all lattices of the measure, which mostly ends within
    # its first pass: that pass runs a quarter of a step^k tail past the
    # nodes the decay rate of the lattice that asks for most needs.  Each
    # lattice's Gram is the one gram call over its last pass, and its own
    # walk's, bit for bit, and the walk returns their sum in order.
    (walk,) = walks
    assert walk["passes"] == passes and len(walk["lattices"]) == lattices
    grams = []
    for lattice in walk["lattices"]:
        grams.append(_one_gram(walk["values"], lattice, walk["last"]))
        assert np.array_equal(lattice_gram(walk["values"], lattice), grams[-1])
    assert np.array_equal(walk["result"], sum(grams[1:], grams[0]))


def test_readme_big_qjacobi_lattices_walk_in_one_pass(monkeypatch):
    walks = _recorded_walks(
        monkeypatch, qorthopoly, lambda: big_qjacobi_gram_matrix(4, README_BQJ)
    )
    _check(walks, 2)


@pytest.mark.parametrize("alpha, q, nmax", [(0.7, 0.5, 6), (1.3, 0.3, 3), (0.4, 0.68, 3)])
def test_moak_half_lines_walk_in_one_pass(monkeypatch, alpha, q, nmax):
    # the up-half (step 1/q) rides on the down-half's first pass, which its
    # own walk would have taken in passes of its own
    walks = _recorded_walks(monkeypatch, qorthopoly, lambda: qorthopoly._moak_gram(nmax, alpha, q))
    _check(walks, 2)


def test_moak_walk_short_of_its_up_half_tail_walks_again_with_twice_the_nodes(monkeypatch):
    # the up-half's degree-6 entries outlast the first pass at alpha = 2.5,
    # q = 0.3; the second pass starts again from node 0 with twice the
    # nodes and sums what one gram call over that pass sums
    walks = _recorded_walks(monkeypatch, qorthopoly, lambda: qorthopoly._moak_gram(6, 2.5, 0.3))
    (walk,) = walks
    assert walk["nodes"] == 3 * walk["last"]
    _check(walks, 2, passes=2)


def test_walk_short_at_max_terms_nodes_raises_convergence_error(monkeypatch):
    # terms 2^(-k/50): about 2,700 nodes to the tail, so passes of 72, 144
    # and the cap of 200 nodes all fall short
    monkeypatch.setattr(recurrence, "MAX_TERMS", 200)
    sizes = []

    def values(x):
        sizes.append(len(x))
        return x[None] ** -0.49

    with pytest.raises(ConvergenceError, match="max_terms"):
        lattice_gram(values, (1.0, 0.5, 1.0, np.ones_like))
    assert sizes == [72, 144, 200]


def test_moak_up_half_overflow_is_named_as_its_own_walk_names_it(monkeypatch):
    # the up-half's degree-16 values overflow at its node 38, so the report
    # `ortho moak alpha=0.7 q=0.15 --nmax 16` exits 2 there (tests/test_cli.py);
    # the shared walk names the node of the up-half's own walk, and the
    # down-half walked beside it is clean
    def run():
        with pytest.raises(OutOfRangeError, match="at node 38$"):
            qorthopoly._moak_gram(16, 0.7, 0.15)

    (walk,) = _recorded_walks(monkeypatch, qorthopoly, run)
    assert walk["passes"] > 1  # the up-half outlasts the first pass
    down, up = walk["lattices"]
    alone = lattice_gram(walk["values"], down)
    assert np.isfinite(alone).all()
    assert np.array_equal(alone, _one_gram(walk["values"], down, walk["last"]))
    with pytest.raises(OutOfRangeError, match="at node 38$"):
        lattice_gram(walk["values"], up)


def test_tail_rule_groups_stop_and_raise_as_walks_of_their_own():
    # two groups side by side in one pass (column j in group j % 2) stop
    # where each stops alone; a non-finite node of group 1 is named only
    # once group 0 has met the rule, and a non-finite node of group 0 is
    # named first
    eps = 1e-6
    slow = np.exp(-0.5 * np.arange(60.0))[:, None] * np.ones((1, 3))
    fast = np.exp(-np.arange(60.0))[:, None] * np.ones((1, 3))
    both = np.stack([slow, fast], axis=2).reshape(60, 6)
    assert _tail_lengths(both, eps, 2) == _tail_lengths(slow, eps) + _tail_lengths(fast, eps)
    assert _tail_lengths(both, eps, 2) == [33, 19]
    bad = both.copy()
    bad[10, 1] = np.inf  # group 1, inside its stop
    assert _tail_lengths(bad[:20], eps, 2) is None  # group 0 still walking
    with pytest.raises(OutOfRangeError, match="at node 10$"):
        _tail_lengths(bad, eps, 2)
    bad[15, 0] = np.nan  # group 0 comes first
    with pytest.raises(OutOfRangeError, match="at node 15$"):
        _tail_lengths(bad, eps, 2)


# each catalog q-integral side and the lattices of its one walk
Q_INTEGRAL_SIDES = (
    ("euler_chain_gamma", "rhs", 1),
    ("q_beta_integral", "rhs", 1),
    ("heine_integral_rep", "rhs", 1),
    ("q_gauss_integral_form", "lhs", 2),
)


@pytest.mark.parametrize("identity_id, side, lattices", Q_INTEGRAL_SIDES)
def test_catalog_q_integral_sides_walk_in_one_pass(monkeypatch, identity_id, side, lattices):
    rec = identities.get_identity(identity_id)
    rng = random.Random(f"lattice|{identity_id}")
    draws = 0
    while draws < 10:
        params = rec.sampler(rng)
        if params is None:
            continue
        walks = _recorded_walks(
            monkeypatch, identities, lambda: getattr(rec, side)(params)
        )
        _check(walks, lattices)
        draws += 1


def test_walk_keeps_the_digits_of_a_weight_below_the_double_range():
    # x_k = 2^-k, w_k = 2^(-320 k), v = (1, 2^(160 min(k, 6))): the (1, 1)
    # terms 2^(-k-1) halve up to node 6 while w underflows from node 4, so
    # a walk of plain double weights stops at 0.9375; all else is exact
    lattice = (1.0, 0.5, 1.0, lambda x: np.full(len(x), 2.0**-320))

    def values(x):
        k = np.rint(-np.log2(x)).astype(int)
        return np.vstack([np.ones(len(x)), np.ldexp(1.0, 160 * np.minimum(k, 6))])

    g = lattice_gram(values, lattice)
    assert g[1, 1] == 0.5 * (2.0 - 2.0**-6)
    assert g[0, 0] == 0.5 and g[0, 1] == 0.5
