"""Tests for the chunked Jackson lattice walk of qspecial.recurrence.

Oracle: one gram call over the same nodes, up to the stop the tail rule
finds when it is fed the whole walk at once.  Chunking only decides how
many nodes each pass evaluates, so the walk must match it bit for bit.
"""

import random

import numpy as np
import pytest

from qspecial import identities, qorthopoly
from qspecial.qcore import TAIL_EPSILON
from qspecial.qorthopoly import BigQJacobiParams, big_qjacobi_gram_matrix
from qspecial.recurrence import _TailRule, gram, lattice_gram

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
    length = _TailRule(TAIL_EPSILON).feed(mags)
    assert length is not None
    return gram(v[:, :length], u[:length])


def _recorded_walks(monkeypatch, module, run):
    """One record per lattice_gram call that run() makes through module:
    its arguments, its result, and the passes and nodes it evaluated."""
    walks = []

    def recording(values, lattice):
        walk = {"passes": 0, "nodes": 0}

        def counted(x):
            walk["passes"] += 1
            walk["nodes"] += len(x)
            return values(x)

        walks.append(walk)
        walk.update(values=values, lattice=lattice)
        walk["result"] = lattice_gram(counted, lattice)
        return walk["result"]

    monkeypatch.setattr(module, "lattice_gram", recording)
    run()
    return walks


def _check(walks, count):
    # each of these walks toward 0 ends within its first pass, which runs
    # a chunk past the nodes its decay rate asks for
    assert len(walks) == count
    for walk in walks:
        assert walk["passes"] == 1
        want = _one_gram(walk["values"], walk["lattice"], walk["nodes"])
        assert np.array_equal(walk["result"], want)


def test_readme_big_qjacobi_lattices_walk_in_one_pass(monkeypatch):
    walks = _recorded_walks(
        monkeypatch, qorthopoly, lambda: big_qjacobi_gram_matrix(4, README_BQJ)
    )
    _check(walks, 2)


# each catalog q-integral side and the lattice walks it makes
Q_INTEGRAL_SIDES = (
    ("euler_chain_gamma", "rhs", 1),
    ("q_beta_integral", "rhs", 1),
    ("heine_integral_rep", "rhs", 1),
    ("q_gauss_integral_form", "lhs", 2),
)


@pytest.mark.parametrize("identity_id, side, count", Q_INTEGRAL_SIDES)
def test_catalog_q_integral_sides_walk_in_one_pass(monkeypatch, identity_id, side, count):
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
        _check(walks, count)
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
