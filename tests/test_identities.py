"""Tests for the machine-checked identity catalog."""

import json
import math
import random
from fractions import Fraction

import mpmath
import pytest

from qspecial import INFINITY, identities, kernels, list_identities, qseries, verify, verify_all
from qspecial import askey_wilson, continuous_q_hermite, q_ultraspherical
from qspecial.askey_wilson import AWParams, aw_recurrence_table
from qspecial.errors import DomainError, QSpecialError
from qspecial.identities import TOLERANCES, VerificationReport, get_identity
from qspecial.qcalculus import qintegral_0a
from qspecial.qcore import qbinomial, qpoch, qpoch_list, tail_sum
from qspecial.qfunctions import E_q, gamma_q
from qspecial.qorthopoly import little_qjacobi
from qspecial.recurrence import eval_all

from mp_oracle import log_qpoch_oracle


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
    spoiled = rec._replace(rhs=lambda p: math.nan)
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


def _aw_kernel_rhs_by_whole_table(p):
    """The kernel series from all 400 rows of the recurrence at once, with
    (q;q)_m from qpoch for each term."""
    q, a, b, c, d, theta, n = (p[k] for k in ("q", "a", "b", "c", "d", "theta", "n"))
    asc = eval_all(aw_recurrence_table(400, AWParams(c, d, 0, 0, q)), math.cos(theta))[:, 0]
    terms = (
        little_qjacobi(n, q**m, a * b / q, c * d / q, q) * a**m * asc[m] / qpoch(q, q, m)
        for m in range(400)
    )
    return tail_sum(terms, "kernel series", max_terms=400)[0]


def test_aw_kernel_side_sums_the_rows_of_the_whole_table(monkeypatch):
    blocks = []
    monkeypatch.setattr(
        identities, "eval_all", lambda rec, x: blocks.append(rec) or eval_all(rec, x)
    )
    rec = get_identity("aw_kernel_transform")
    read_on = []
    for s in range(40):
        p = rec.sampler(random.Random(f"aw_kernel_transform|{s}"))
        blocks.clear()
        got, want = identities._aw_kernel_rhs(p), _aw_kernel_rhs_by_whole_table(p)
        if kernels.BACKEND == "python":
            assert got == want
        else:
            assert abs(got - want) <= 1e-14 * abs(want)
        rows = [len(r.b) for r in blocks]
        if len(rows) > 1:
            assert rows == [rows[0], 2 * rows[0]]
            read_on.append(s)
    # the draws whose tail runs past the first block, 6 terms over the a^m count
    assert read_on == [2, 23, 24, 27, 36]


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
    "lattice_gram", "qpoch_inf_ratio", "E_q", "e_q", "gamma_q", "gamma_q_reciprocal",
    "partition_count", "little_qjacobi", "aw_poly",
    "aw_recurrence_table", "classical_eval", "eval_all",
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


def _node_by_node_gamma(p):
    q, b = p["q"], p["b"]
    f = lambda t: t ** (b - 1.0) * E_q(-(1.0 - q) * q * t, q)
    return qintegral_0a(f, 1.0 / (1.0 - q), q)


def _node_by_node_beta(p):
    q, a, b = p["q"], p["a"], p["b"]
    f = lambda t: (
        t ** (b - 1.0) * qpoch(q * t, q, INFINITY) / qpoch(q**a * t, q, INFINITY)
    )
    return qintegral_0a(f, 1.0, q)


def _node_by_node_heine(p):
    q, a, b, c, z = p["q"], p["a"], p["b"], p["c"], p["z"]
    pref = gamma_q(c, q) / (gamma_q(b, q) * gamma_q(c - b, q))
    f = lambda t: (
        t ** (b - 1.0)
        * qpoch_list([t * q, t * z * q**a], q, INFINITY)
        / qpoch_list([t * q ** (c - b), t * z], q, INFINITY)
    )
    return pref * qintegral_0a(f, 1.0, q)


def _node_by_node_gauss(p):
    q, a, b, c = p["q"], p["a"], p["b"], p["c"]
    f = lambda t: (
        qpoch_list([c * t, q * t], q, INFINITY) / qpoch_list([a * t, b * t], q, INFINITY)
    )
    return qintegral_0a(f, 1.0, q) - qintegral_0a(f, q / c, q)


# each catalog q-integral side, its node-by-node twin, and its lattice ends
_JACKSON_SIDES = {
    "euler_chain_gamma": ("rhs", _node_by_node_gamma, 1),
    "q_beta_integral": ("rhs", _node_by_node_beta, 1),
    "heine_integral_rep": ("rhs", _node_by_node_heine, 1),
    "q_gauss_integral_form": ("lhs", _node_by_node_gauss, 2),
}


def _catalog_draws(identity_id, seeds, samples=25):
    """The candidates verify draws at each seed that the sampler admits."""
    rec = get_identity(identity_id)
    for seed in seeds:
        rng = random.Random(f"{identity_id}|{seed}")
        for _ in range(samples):
            params = None
            while params is None:
                params = rec.sampler(rng)
            yield params


@pytest.mark.parametrize("identity_id", sorted(_JACKSON_SIDES))
def test_stepped_integral_side_matches_the_node_by_node_sum(identity_id):
    side, node_by_node, _ = _JACKSON_SIDES[identity_id]
    stepped = getattr(get_identity(identity_id), side)
    for params in _catalog_draws(identity_id, range(4)):
        assert identities._rel_err(stepped(params), node_by_node(params)) <= 1e-13


@pytest.mark.parametrize("identity_id", sorted(_JACKSON_SIDES))
def test_integral_side_takes_its_products_at_the_lattice_ends_only(identity_id, monkeypatch):
    side, _, ends = _JACKSON_SIDES[identity_id]
    calls = []
    real_ratio = identities.qpoch_inf_ratio

    def ratio(*args, **kwargs):
        calls.append(args)
        return real_ratio(*args, **kwargs)

    def per_node(*args, **kwargs):
        raise AssertionError("an integral side formed a product per node")

    monkeypatch.setattr(identities, "qpoch_inf_ratio", ratio)
    for name in ("qpoch", "qpoch_list", "E_q"):
        monkeypatch.setattr(identities, name, per_node)
    stepped = getattr(get_identity(identity_id), side)
    # q runs over [0.1, 0.9], so the lattices run from a few dozen nodes to hundreds
    for params in _catalog_draws(identity_id, range(2)):
        calls.clear()
        stepped(params)
        assert len(calls) == ends


def test_q_binomial_product_side_holds_where_each_product_underflows():
    # (z;q)_oo alone is e^-15842 here, far below the double range; the
    # quotient is 6.6e19
    p = {"q": 0.9999, "a": 0.999, "z": 0.99}
    got = get_identity("q_binomial_theorem").rhs(p)
    top, _ = log_qpoch_oracle(p["a"] * p["z"], p["q"])
    bottom, _ = log_qpoch_oracle(p["z"], p["q"])
    with mpmath.workdps(50):
        want = mpmath.exp(top - bottom)
        assert float(abs(got - want) / abs(want)) <= 1e-10


def test_product_sides_form_no_infinite_product_by_the_list(monkeypatch):
    # a product or quotient of (a;q)_oo factors is one qpoch_inf_ratio call,
    # so no side of any record hands INFINITY to qpoch_list
    def finite_only(alist, q, k):
        if k == INFINITY:
            raise AssertionError("a side formed (a;q)_oo factor by factor")
        return qpoch_list(alist, q, k)

    monkeypatch.setattr(identities, "qpoch_list", finite_only)
    for identity_id in list_identities():
        assert verify(identity_id, samples=1, seed=0).passed, identity_id


def test_coefficient_sides_keep_the_bits_of_their_per_k_forms():
    # the Euler series, the q-Pochhammer convolution and the Al-Salam-Chihara
    # coefficient stream read each (e;q)_k from one running product; each
    # equals its form with one qpoch per factor and k
    rng = random.Random(29)
    s = lambda lo, hi: rng.uniform(lo, hi) * rng.choice((-1.0, 1.0))
    for i in range(300):
        q = rng.uniform(0.05, 0.95)
        x = s(0.0, 1.5) if i % 2 else complex(s(0.0, 1.5), s(0.0, 1.5))
        assert identities._euler_plus_series(x, q, 12) == [
            (-x) ** k * q ** (k * (k - 1) / 2.0) / qpoch(q, q, k) for k in range(13)
        ]
        assert identities._euler_minus_series(x, q, 12) == [
            x**k / qpoch(q, q, k) for k in range(13)
        ]
        a, n = x, rng.randrange(0, 11)
        b = s(0.2, 1.5) if i % 3 else complex(s(0.2, 1.0), s(0.2, 1.0))
        want = identities._sum(
            qbinomial(n, k, q) * b**k * qpoch(a, q, k) * qpoch(b, q, n - k) for k in range(n + 1)
        )
        assert identities._qpoch_convolution_rhs(dict(q=q, a=a, b=b, n=n)) == want
        p = dict(q=min(q, 0.78), c=s(0.2, 0.8), d=s(0.2, 0.8), theta=rng.uniform(0.2, 3.0))
        rec = aw_recurrence_table(12, AWParams(p["c"], p["d"], 0, 0, p["q"]))
        values = eval_all(rec, math.cos(p["theta"]))[:, 0]
        want = tuple(value / qpoch(p["q"], p["q"], m) for m, value in enumerate(values))
        assert identities._asc_genfn_rhs(p) == want


def test_prefix_sides_make_no_q_pochhammer_calls(monkeypatch):
    # a run of (e;q)_k over k = 0..n is one running product, not one qpoch
    # per k
    calls = []
    for module in (askey_wilson, identities):
        qpoch_at_site = module.qpoch
        monkeypatch.setattr(
            module, "qpoch", lambda *args, f=qpoch_at_site: calls.append(args) or f(*args)
        )
    continuous_q_hermite(20, 0.3, 0.7)
    q_ultraspherical(20, 1.1, 0.4, 0.7)
    record = get_identity("alsalam_chihara_genfn")
    p = {"q": 0.6, "c": 0.5, "d": -0.3, "theta": 1.2}
    record.lhs(p), record.rhs(p)
    assert calls == []


def _lower_ok_reference(vals, q, margin=0.05):
    """_lower_ok as a walk over every point t_j = 1 / q^j, each formed by
    one more division, for j < 80 while t_j <= 1e12."""
    for v in vals:
        target = 1.0
        for _ in range(80):
            if abs(v - target) < margin * abs(target):
                return False
            target /= q
            if abs(target) > 1e12:
                break
    return True


def test_lower_ok_gives_the_walks_answer_at_every_window_edge():
    qs = [0.1 + 0.85 * i / 20 for i in range(21)] + [0.93, 0.7071, 0.1 + 1e-12]
    for q in qs:
        # every tested t_j and the first one past a cut (80 points or 1e12)
        targets, t = [], 1.0
        while len(targets) < 81:
            targets.append(t)
            if t > 1e12:
                break
            t /= q
        vals = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e300, 5e-324]
        for t in targets:
            for edge in (t - 0.05 * t, t + 0.05 * t):
                v = edge
                for _ in range(3):
                    v = math.nextafter(v, 0.0)
                near = [v]
                for _ in range(6):
                    v = math.nextafter(v, math.inf)
                    near.append(v)
                vals += near + [-v for v in near] + [complex(v, 1e-9 * v) for v in near[2:5]]
            vals += [t, -t, 1j * t, complex(t, 0.04 * t), complex(t, 0.06 * t)]
        for v in vals:
            assert identities._lower_ok([v], q) == _lower_ok_reference([v], q), (q, v)
    # a list is rejected as soon as one value is
    assert identities._lower_ok([0.3, 2.0, 1.0], 0.5) is False
    assert identities._lower_ok([0.3, 2.0 * 1.06], 0.5) is True
