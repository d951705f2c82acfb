"""Tests for the machine-checked identity catalog."""

import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest

from qspecial import identities, list_identities, qseries, verify, verify_all
from qspecial.errors import DomainError, QSpecialError
from qspecial.identities import TOLERANCES, VerificationReport, get_identity


def test_catalog_size_and_classes():
    ids = list_identities()
    assert len(ids) >= 35
    assert len(set(ids)) == len(ids)
    for identity_id in ids:
        rec = get_identity(identity_id)
        assert rec.tolerance_class in TOLERANCES


def test_verify_returns_report():
    rep = verify("q_binomial_theorem", samples=10, seed=0)
    assert isinstance(rep, VerificationReport)
    assert rep.samples == 10
    assert rep.seed == 0
    assert rep.passed
    assert rep.max_rel_error <= rep.tolerance


def test_verify_unknown_identity():
    with pytest.raises(DomainError):
        verify("no_such_identity")


def test_verify_is_deterministic_per_seed():
    r1 = verify("q_gauss", samples=8, seed=3)
    r2 = verify("q_gauss", samples=8, seed=3)
    assert r1.max_rel_error == r2.max_rel_error
    r3 = verify("q_gauss", samples=8, seed=4)
    assert r3.max_rel_error != r1.max_rel_error


def test_tolerance_override():
    rep = verify("q_binomial_theorem", samples=5, seed=0, tolerance=1e-30)
    assert rep.tolerance == 1e-30
    assert not rep.passed
    assert rep.failures


def test_report_json_round_trip():
    rep = verify("q_binomial_theorem", samples=5, seed=1)
    data = json.loads(rep.to_json())
    assert data["id"] == "q_binomial_theorem"
    assert data["samples"] == 5
    assert data["seed"] == 1
    assert data["tolerance"] == rep.tolerance
    assert data["max_rel_error"] == rep.max_rel_error
    assert data["failures"] == []
    # emit -> parse -> emit is stable
    assert json.loads(json.dumps(data)) == data


def test_verify_all_small_sample_sweep():
    reports = verify_all(samples=5, seed=0)
    assert len(reports) == len(list_identities())
    for rep in reports:
        assert rep.passed, f"{rep.id}: {rep.max_rel_error}"


def test_verify_all_tolerance_overrides():
    reports = verify_all(samples=3, seed=0, tolerance_overrides={"q_gauss": 1e-30})
    by_id = {r.id: r for r in reports}
    assert by_id["q_gauss"].tolerance == 1e-30
    assert not by_id["q_gauss"].passed


def test_non_finite_error_is_a_failure(monkeypatch):
    rec = get_identity("q_binomial_theorem")
    spoiled = dataclasses.replace(rec, rhs=lambda p: math.nan)
    monkeypatch.setitem(identities._REGISTRY, rec.id, spoiled)
    rep = verify(rec.id, samples=3, seed=0)
    assert not rep.passed
    assert len(rep.failures) == 3
    assert rep.max_rel_error == math.inf


def test_aw_kernel_transform_is_checked():
    rep = verify("aw_kernel_transform", samples=5, seed=0)
    assert math.isfinite(rep.max_rel_error)
    assert rep.max_rel_error <= 1e-8
    assert rep.passed


def test_1psi1_sampler_rejects_slow_tail_before_the_walk(monkeypatch):
    # seed 127 draws c/(bz) = -0.9998, whose downward tail would run the
    # whole term budget of the walk that verify makes of the left side
    walked = []
    real_walk = qseries.psi_walk

    def walk(spec, *args):
        walked.append(spec.lower[0] / (spec.upper[0] * spec.z))
        return real_walk(spec, *args)

    monkeypatch.setattr(qseries, "psi_walk", walk)
    assert verify("ramanujan_1psi1", samples=25, seed=127).passed
    assert walked
    assert all(abs(abs(r) - 1.0) >= 1e-3 for r in walked)


def test_kappa_stops_a_terminating_series_at_its_degree():
    # a terminating_reversal candidate: 2.634... = q^-4, so the series ends
    # at k = 4; a float walk past k = 4 sums garbage terms that grow like
    # |z|^k until sum |t| overflows, and that walk gave kappa = inf here
    upper = [2.6340716090179632, -3.187854634919791]
    lower = [-8.118304082475822]
    q, z = 0.7849520095955279, -1.526259033547419
    with qseries._conditioning_scope() as scope:
        qseries.eval_phi(qseries.SeriesSpec(upper, lower, q, z))
    kappa = scope.worst
    assert kappa <= 1e3
    qf, term, terms = Fraction(q), Fraction(1), [Fraction(1)]
    for k in range(4):
        qk = qf**k
        term *= (1 - Fraction(upper[0]) * qk) * (1 - Fraction(upper[1]) * qk) * Fraction(z)
        term /= (1 - Fraction(lower[0]) * qk) * (1 - qf ** (k + 1))
        terms.append(term)
    exact = sum(abs(t) for t in terms) / abs(sum(terms))
    assert kappa == pytest.approx(float(exact), rel=1e-12)


def _raising_record(guarded):
    # candidates whose sides raise: |z| >= 1 outside the unit disk of a
    # 2phi1, a lower parameter at 1/q, and a 0psi1 outside its annulus;
    # then one whose sides sum
    candidates = iter(
        [
            ("phi", [0.3, 0.4], [0.5], 1.5),
            ("phi", [0.3], [2.0], 0.5),
            ("psi", [], [0.5], 0.3),
            ("phi", [0.3, 0.4], [0.5], 0.5),
        ]
    )
    walks = {"phi": qseries.eval_phi, "psi": qseries.eval_psi}

    def side(p):
        return walks[p["walk"]](qseries.SeriesSpec(p["upper"], p["lower"], 0.5, p["z"]))

    def sampler(rng):
        walk, upper, lower, z = next(candidates)
        return {"walk": walk, "upper": upper, "lower": lower, "z": z}

    return identities.IdentityRecord(
        "raising_sides", side, side, sampler, "PRODUCT_SERIES", "", guarded
    )


def test_guarded_draw_is_redrawn_when_a_side_raises(monkeypatch):
    monkeypatch.setitem(identities._REGISTRY, "raising_sides", _raising_record(True))
    rep = verify("raising_sides", samples=1)
    assert rep.passed
    assert rep.max_kappa == pytest.approx(1.0)
    # an unguarded record keeps its draw, and the error reaches the caller
    monkeypatch.setitem(identities._REGISTRY, "raising_sides", _raising_record(False))
    with pytest.raises(QSpecialError):
        verify("raising_sides", samples=1)


@pytest.mark.parametrize(
    "tolerance_class, bound",
    [("EXACT_TERMINATING", 1e3), ("PRODUCT_SERIES", 1e4), ("LIMIT_CHAIN", 1e6)],
)
def test_guard_bound_is_the_class_tolerance_at_unit_rounding(
    tolerance_class, bound, monkeypatch
):
    # sides that report one walk each, first just above the bound, then
    # just below it
    kappas = iter([1.01 * bound, 0.99 * bound])
    record = identities.IdentityRecord(
        "kappa_bound",
        lambda p: qseries._walked(1.0, p["kappa"])[0],
        lambda p: 1.0,
        lambda rng: {"kappa": next(kappas)},
        tolerance_class,
        "",
        True,
    )
    monkeypatch.setitem(identities._REGISTRY, "kappa_bound", record)
    rep = verify("kappa_bound", samples=1, tolerance=1e-30)
    assert rep.passed
    assert rep.max_kappa == 0.99 * bound


def test_guard_redraws_by_the_worst_kappa_of_both_sides():
    # seed 116 once accepted a draw whose right-hand 2phi1 has kappa 1.6e12,
    # a series no guard walked, and failed with error 7.8e-6
    rep = verify("three_term_2phi1", samples=25, seed=116)
    assert rep.passed
    assert 1.0 <= rep.max_kappa <= TOLERANCES["PRODUCT_SERIES"] / 1e-14


def test_unguarded_record_reports_the_kappa_of_its_draw():
    # F3: the q-Gauss draw at seed 16 sums a series with kappa 1.2e18
    rep = verify("q_gauss", samples=1, seed=16)
    assert not rep.passed
    assert rep.max_kappa > 1e17
    assert json.loads(rep.to_json())["max_kappa"] == rep.max_kappa


def _cancelling_record(guarded):
    # 1e5 + (-1e5 + 1) is exactly 1, at amplification 2e5 - 1, above the
    # PRODUCT_SERIES bound of 1e4; then two terms that do not cancel
    draws = iter([[1e5, -1e5 + 1.0], [1.0, 2.0]])
    return identities.IdentityRecord(
        "cancelling_sum",
        lambda p: identities._sum(p["terms"]),
        lambda p: sum(p["terms"]),
        lambda rng: {"terms": next(draws)},
        "PRODUCT_SERIES",
        "",
        guarded,
    )


def test_guard_judges_a_finite_sum_of_side_terms_like_a_walk(monkeypatch):
    monkeypatch.setitem(identities._REGISTRY, "cancelling_sum", _cancelling_record(True))
    rep = verify("cancelling_sum", samples=1, tolerance=1e-30)
    assert rep.passed
    assert rep.max_kappa == 1.0
    monkeypatch.setitem(identities._REGISTRY, "cancelling_sum", _cancelling_record(False))
    rep = verify("cancelling_sum", samples=1, tolerance=1e-30)
    assert rep.max_kappa == 2e5 - 1.0


# every evaluator the catalog's sides call
_EVALUATORS = (
    "eval_phi", "eval_psi", "qpoch", "qpoch_list", "qbinomial", "tail_sum",
    "qintegral_0a", "E_q", "e_q", "gamma_q", "gamma_q_reciprocal",
    "partition_count", "little_qjacobi", "aw_poly",
    "al_salam_chihara_recurrence_table", "classical_eval", "eval_all",
)


def test_samplers_only_draw(monkeypatch):
    # whether a draw is well conditioned is judged in verify alone, from the
    # walks its two sides make; a sampler that evaluated would walk again
    def evaluator(*args, **kwargs):
        raise AssertionError("a sampler called an evaluator")

    for name in _EVALUATORS:
        monkeypatch.setattr(identities, name, evaluator)
    rng = random.Random(0)
    for identity_id in list_identities():
        sampler = get_identity(identity_id).sampler
        for _ in range(50):
            sampler(rng)


def test_three_term_sides_walk_each_series_once(monkeypatch):
    # 25 draws need 3 walks each, and one draw is redrawn; the sampler's
    # own cancellation check once walked the left side a second time
    walks = []
    real_walk = qseries.phi_walk

    def walk(*args):
        walks.append(args)
        return real_walk(*args)

    monkeypatch.setattr(qseries, "phi_walk", walk)
    assert verify("three_term_2phi1", samples=25, seed=0).passed
    assert len(walks) <= 78
