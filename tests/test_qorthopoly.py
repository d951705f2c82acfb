"""Tests for big/little q-Jacobi and the discrete orthogonal family tableau.

Oracles: closed-form norms, Gram entries via q-integrals and finite
sums, dual series representations, and shift-operator algebra.
"""

import math
import random
import sys

import mpmath
import numpy as np
import pytest

from qspecial import (
    BigQJacobiParams,
    FamilyParams,
    big_qjacobi,
    big_qjacobi_monic,
    big_qjacobi_norm,
    family_eval,
    little_qjacobi,
    little_qjacobi_norm,
    qpoch,
)
from qspecial import kernels, qorthopoly, qseries
from qspecial.askey_wilson import AWParams, aw_gram_quadrature, aw_norm, aw_norms
from qspecial.errors import DomainError, OutOfRangeError
from qspecial.qorthopoly import (
    _FAMILIES,
    _affine_qinv_krawtchouk_weights,
    _moak,
    _moak_alt,
    _moak_recurrence_table,
    _q_hahn_weights,
    _q_krawtchouk_weights,
    _q_racah_norms,
    _q_racah_weights,
    al_salam_carlitz_u,
    big_qjacobi_gram_matrix,
    big_qjacobi_norms,
    big_qjacobi_recurrence,
    big_qjacobi_recurrence_table,
    big_qjacobi_eigenvalue,
    big_qjacobi_norm_point_value,
    big_qjacobi_second_value,
    big_qjacobi_shift_down,
    big_qjacobi_shift_up,
    big_qjacobi_weight_integral,
    big_qjacobi_weight,
    family_gram_matrix,
    family_norms,
    little_qjacobi_gram_matrix,
    qtaylor_coefficients,
    quadratic_transform_u,
    quadratic_transform_v,
    quadratic_transform_check,
)
from qspecial.qcalculus import qintegral_0a
from qspecial.qcore import QUIET_TERMS, qpoch_inf_ratio, qpoch_list
from qspecial.qseries import _conditioning_scope

from mp_oracle import q_racah_oracle
from qspecial.recurrence import _tail_lengths, eval_all, lattice_gram

BQJ = BigQJacobiParams(0.95, 0.3, 0.855, 1.0, 0.9)


def test_big_qjacobi_normalization_point():
    # normalized value 1 at x = c/(qa)
    x0 = BQJ.c / (BQJ.q * BQJ.a)
    assert complex(big_qjacobi(4, x0, BQJ)).real == pytest.approx(1.0, rel=1e-12)


def test_big_qjacobi_second_value_matches_series_and_recurrence():
    # the closed form at x = -d/(qb) against the normalized series (held to
    # 1e-13 of its sum |t_k|) and the monic recurrence over the value at c/(qa)
    rng = random.Random(11)
    draws = [(0.6, 0.4, 1.1, 0.9, 0.5)]
    draws += [
        (rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9), rng.uniform(0.5, 1.5),
         rng.uniform(0.5, 1.5), rng.uniform(0.2, 0.8))
        for _ in range(20)
    ]
    for args in draws:
        p = BigQJacobiParams(*args)
        x = -p.d / (p.q * p.b)
        for n in range(9):
            closed = big_qjacobi_second_value(n, p)
            with _conditioning_scope() as scope:
                series = big_qjacobi(n, x, p)
            assert abs(series - closed) <= 1e-13 * scope.worst * abs(series), (args, n)
            rec = big_qjacobi_monic(n, x, p) / big_qjacobi_norm_point_value(n, p)
            assert abs(rec - closed) <= 1e-13 * abs(closed), (args, n)


def test_big_qjacobi_dual_path():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(0, 9)
        x = rng.uniform(-BQJ.d, BQJ.c)
        a = big_qjacobi_monic(n, x, BQJ)
        b = big_qjacobi_norm_point_value(n, BQJ) * big_qjacobi(n, x, BQJ)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def test_big_qjacobi_gram_matrix():
    nmax = 4
    diag = [complex(big_qjacobi_norm(n, BQJ)).real for n in range(nmax + 1)]
    scale = max(abs(d) for d in diag)
    gram = big_qjacobi_gram_matrix(nmax, BQJ)
    for n in range(nmax + 1):
        for m in range(n, nmax + 1):
            g = complex(gram[n, m]).real
            if n == m:
                assert abs(g - diag[n]) <= 1e-8 * max(abs(diag[n]), 1e-300)
            else:
                assert abs(g) <= 1e-9 * scale


def test_big_qjacobi_gram_matrix_degree_ten():
    nmax = 10
    gram = big_qjacobi_gram_matrix(nmax, BQJ)
    diag = [complex(big_qjacobi_norm(n, BQJ)) for n in range(nmax + 1)]
    scale = max(abs(d) for d in diag)
    for n in range(nmax + 1):
        for m in range(nmax + 1):
            if n == m:
                assert abs(gram[n, n] - diag[n]) <= 1e-8 * abs(diag[n])
            else:
                assert abs(gram[n, m]) <= 1e-9 * scale


def test_little_qjacobi_gram_matrix_at_a_weight_pole_raises():
    # qb = 8 = q^-3: the weight's (qb;q)_oo in a denominator vanishes
    with pytest.raises(DomainError, match="pole"):
        little_qjacobi_gram_matrix(2, 0.5, 16.0, 0.5)


def test_gram_matrices_reject_a_negative_degree():
    with pytest.raises(DomainError):
        big_qjacobi_gram_matrix(-1, BigQJacobiParams(0.4, 0.6, 1.2, 0.7, 0.5))
    with pytest.raises(DomainError):
        little_qjacobi_gram_matrix(-1, 0.4, 0.3, 0.5)
    with pytest.raises(DomainError):
        aw_gram_quadrature(AWParams(0.6, 0.4, -0.3, 0.2, 0.55), -1, 64)


def test_big_qjacobi_gram_matrix_matches_scalar_qintegral():
    # the entry-by-entry Jackson integral with product weights is the
    # reference for the stepped-weight lattice walk
    p = BigQJacobiParams(0.4, 0.6, 1.2, 0.7, 0.5)
    gram = big_qjacobi_gram_matrix(2, p)
    scale = max(abs(gram[n, n]) for n in range(3))
    for n in range(3):
        for m in range(3):
            f = lambda x: (
                big_qjacobi_monic(n, x, p)
                * big_qjacobi_monic(m, x, p)
                * big_qjacobi_weight(x, p)
            )
            want = qintegral_0a(f, p.c, p.q) - qintegral_0a(f, -p.d, p.q)
            assert abs(gram[n, m] - want) <= 1e-14 * scale


def _one_pass_walk_length(mags, eps):
    """The tail rule over the whole walk so far, rescanned from its first
    node: the nodes summed once every entry has met it, else None."""
    if len(mags) < QUIET_TERMS:
        return None
    scale = np.maximum.accumulate(mags, axis=0)
    small = mags < eps * np.maximum(scale, 1e-300)
    run = small[QUIET_TERMS - 1 :].copy()
    for lag in range(1, QUIET_TERMS):
        run &= small[QUIET_TERMS - 1 - lag : len(small) - lag]
    if not run.any(axis=0).all():
        return None
    return int(run.argmax(axis=0).max()) + QUIET_TERMS


def test_tail_rule_over_passes_of_random_lengths_matches_a_rescan():
    rng = np.random.default_rng(7)
    eps = 1e-6
    for trial in range(40):
        entries = int(rng.integers(1, 9))
        nodes = 200
        # tails decaying at different rates, with bursts that restart the
        # quiet count and exact zeros
        rates = rng.uniform(0.05, 0.5, entries)
        mags = np.exp(-np.outer(np.arange(nodes), rates)) * rng.uniform(0.1, 1.0, (nodes, entries))
        mags[rng.random((nodes, entries)) < 0.05] *= 1e8
        mags[rng.random((nodes, entries)) < 0.05] = 0.0
        walked, got = 0, None
        while got is None and walked < nodes:
            walked = min(nodes, walked + int(rng.integers(1, 12)))
            (got,) = _tail_lengths(mags[:walked], eps) or [None]
            assert got == _one_pass_walk_length(mags[:walked], eps), trial
        assert got is not None


def test_tail_rule_raises_on_a_summed_non_finite_entry():
    eps = 1e-6
    mags = np.exp(-np.arange(40.0))[:, None] * np.ones((1, 3))
    # past the stop at node 19 a non-finite entry is never summed
    late = mags.copy()
    late[30, 1] = np.inf
    assert _tail_lengths(late, eps) == [_one_pass_walk_length(mags, eps)] == [19]
    for bad in (np.inf, np.nan):
        early = mags.copy()
        early[10, 2] = bad
        with pytest.raises(OutOfRangeError):
            _tail_lengths(early, eps)
        assert _tail_lengths(early[:8], eps) is None
        with pytest.raises(OutOfRangeError):
            _tail_lengths(early[:16], eps)


def test_eval_all_rows_match_scalar_recurrence():
    nmax = 8
    xs = [-0.9, -0.2, 0.35, 0.8]
    rows = eval_all(big_qjacobi_recurrence_table(nmax, BQJ), xs)
    assert rows.shape == (nmax + 1, len(xs))
    for j, x in enumerate(xs):
        prev, cur = 0.0, 1.0
        for n in range(nmax + 1):
            assert abs(rows[n, j] - cur) <= 1e-14 * max(1.0, abs(cur))
            assert rows[n, j] == big_qjacobi_monic(n, x, BQJ)
            bn, cn = big_qjacobi_recurrence(n, BQJ)
            prev, cur = cur, (x - bn) * cur - cn * prev


def test_big_qjacobi_weight_total_mass():
    closed = big_qjacobi_weight_integral(BQJ)
    f = lambda x: big_qjacobi_weight(x, BQJ)
    numeric = qintegral_0a(f, BQJ.c, BQJ.q) - qintegral_0a(f, -BQJ.d, BQJ.q)
    assert complex(numeric).real == pytest.approx(complex(closed).real, rel=1e-11)


def test_big_qjacobi_shift_down_lowers_degree():
    # D_q^- P~_n(.; a,b,c,d) = (1-q^n)/(1-q) P~_{n-1}(.; qa,qb,c,d)
    q = BQJ.q
    raised = BigQJacobiParams(q * BQJ.a, q * BQJ.b, BQJ.c, BQJ.d, q)
    rng = random.Random(3)
    for n in range(1, 7):
        x = rng.uniform(0.1, BQJ.c)
        lhs = big_qjacobi_shift_down(n, x, BQJ)
        rhs = (1 - q**n) / (1 - q) * big_qjacobi_monic(n - 1, x, raised)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_big_qjacobi_shift_up_raises_degree():
    q = BQJ.q
    rng = random.Random(4)
    for n in range(1, 7):
        x = rng.uniform(0.1, BQJ.c)
        lhs = big_qjacobi_shift_up(n, x, BQJ)
        factor = (q**2 * BQJ.a * BQJ.b - q ** float(1 - n)) / (
            (1 - q) * BQJ.c * BQJ.d
        )
        rhs = factor * big_qjacobi_monic(n, x, BQJ)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_big_qjacobi_eigenvalue_from_shift_composition():
    # the eigenvalue is the product of the lowering and raising factors
    q = BQJ.q
    for n in range(1, 7):
        lam = big_qjacobi_eigenvalue(n, BQJ)
        down_factor = (1 - q**n) / (1 - q)
        up_factor = (q**2 * BQJ.a * BQJ.b - q ** float(1 - n)) / (
            (1 - q) * BQJ.c * BQJ.d
        )
        assert complex(lam).real == pytest.approx(down_factor * up_factor, rel=1e-11)


def test_qtaylor_coefficients_recover_basis_element():
    # f(x) = (qax/c; q)_2 has coefficients (0, 0, 1)
    q, a, c = 0.6, 0.8, 1.1

    def f(x):
        return (1 - q * a * x / c) * (1 - q**2 * a * x / c)

    coeffs = qtaylor_coefficients(f, 3, a, c, q)
    want = [0.0, 0.0, 1.0, 0.0]
    for got, w in zip(coeffs, want):
        assert abs(got - w) <= 1e-10


def test_little_qjacobi_value_at_zero():
    assert complex(little_qjacobi(5, 0.0, 0.4, 0.3, 0.6)).real == pytest.approx(1.0)


def test_little_qjacobi_forms_agree():
    # the 3phi2 path carries a q^{-n(n-1)/2} prefactor whose cancellation
    # conditioning scales like q^{-n^2} b^{-n}; q near 1 and moderate b
    # keep both representations honest at degree 8
    rng = random.Random(11)
    q, a, b = 0.95, 0.5, 0.5
    for _ in range(20):
        n = rng.randrange(0, 9)
        x = rng.uniform(0.0, 1.0)
        v1 = little_qjacobi(n, x, a, b, q, form="2phi1")
        v2 = little_qjacobi(n, x, a, b, q, form="3phi2")
        assert abs(v1 - v2) <= 1e-9 * max(1.0, abs(v1), abs(v2))


def test_little_qjacobi_gram_and_norm():
    a, b, q = 0.5, 0.4, 0.7
    gram = little_qjacobi_gram_matrix(3, a, b, q)
    for n in range(4):
        for m in range(n, 4):
            g = complex(gram[n, m]).real
            if n == m:
                want = little_qjacobi_norm(n, a, b, q)
                assert g == pytest.approx(want, rel=1e-9)
            else:
                assert abs(g) <= 1e-10


def test_little_qjacobi_orthogonality_exponent_form():
    # the (alpha, beta) exponent parametrization: a = q^alpha, b = q^beta
    alpha, beta, q = 0.8, 1.3, 0.65
    g = little_qjacobi_gram_matrix(2, q**alpha, q**beta, q)[2, 2]
    want = little_qjacobi_norm(2, q**alpha, q**beta, q)
    assert complex(g).real == pytest.approx(want, rel=1e-9)


def test_wall_dual_forms():
    fam = FamilyParams("wall", 0.55, a=0.4)
    for n in range(0, 9):
        for x in (0.2, 0.45, 0.8):
            v1 = family_eval(fam, n, x, form="primary")
            v2 = family_eval(fam, n, x, form="alt")
            assert abs(v1 - v2) <= 1e-9 * max(1.0, abs(v1))


def test_moak_dual_forms():
    fam = FamilyParams("moak", 0.6, alpha=0.7)
    for n in range(0, 9):
        for x in (0.3, 1.1):
            v1 = family_eval(fam, n, x, form="primary")
            v2 = family_eval(fam, n, x, form="alt")
            assert abs(v1 - v2) <= 1e-9 * max(1.0, abs(v1), abs(v2))


def test_moak_recurrence_matches_both_series():
    # the Gram's recurrence values (KLS 14.21.3) against the two printed
    # series at nodes (1-q) q^k of both halves of the Gram lattice; each
    # series is held to 1e-13 of its sum |t_k|, scaled as its value is
    rng = random.Random(21)
    for _ in range(40):
        alpha, q = rng.uniform(-0.9, 4.0), rng.uniform(0.1, 0.95)
        xs = [(1.0 - q) * q ** float(rng.randint(-20, 40)) for _ in range(4)]
        rows = eval_all(_moak_recurrence_table(10, alpha, q), xs)
        for j, x in enumerate(xs):
            for n in range(11):
                for series in (_moak, _moak_alt):
                    with _conditioning_scope() as scope:
                        want = series(n, x, alpha, q)
                    mass = scope.worst * abs(want)
                    assert abs(rows[n, j] - want) <= 1e-13 * mass, (alpha, q, x, n)


def test_moak_table_beyond_the_double_range_raises_in_the_walk():
    # q^-(2n+alpha+1) overflows at n = 80, q = 0.01; the walk names the node
    with pytest.raises(OutOfRangeError, match="node 0"):
        family_gram_matrix(FamilyParams("moak", 0.01, alpha=0.7), 80)


def test_big_q_laguerre_dual_forms():
    fam = FamilyParams("big_q_laguerre", 0.9, a=0.4, c=1.0, d=1.3)
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(0, 9)
        x = rng.uniform(-1.3, 1.0)
        v1 = family_eval(fam, n, x, form="primary")
        v2 = family_eval(fam, n, x, form="alt")
        assert abs(v1 - v2) <= 1e-9 * max(1.0, abs(v1), abs(v2))


def test_affine_families_dual_forms():
    q = 0.45
    fam = FamilyParams("affine_q_krawtchouk", q, a=0.5, N=6)
    for n in range(0, 7):
        x = q ** float(-2)
        v1 = family_eval(fam, n, x, form="primary")
        v2 = family_eval(fam, n, x, form="alt")
        assert abs(v1 - v2) <= 1e-9 * max(1.0, abs(v1), abs(v2))
    fam2 = FamilyParams("affine_qinv_krawtchouk", q, b=0.7, N=6)
    for n in range(0, 7):
        x = q ** float(-3)
        v1 = family_eval(fam2, n, x, form="primary")
        v2 = family_eval(fam2, n, x, form="alt")
        assert abs(v1 - v2) <= 1e-9 * max(1.0, abs(v1), abs(v2))


def test_finite_family_orthogonality():
    q = 0.5
    fams = [
        FamilyParams("q_hahn", q, a=0.4, b=0.3, N=5),
        FamilyParams("q_krawtchouk", q, b=0.6, N=5),
        FamilyParams("affine_q_krawtchouk", q, a=0.5, N=5),
        FamilyParams("affine_qinv_krawtchouk", q, b=0.7, N=5),
    ]
    for fam in fams:
        gram = family_gram_matrix(fam, 3)
        diag = [abs(complex(gram[n, n])) for n in range(4)]
        scale = max(diag)
        assert all(d > 0 for d in diag)
        for n in range(4):
            for m in range(n + 1, 4):
                off = abs(complex(gram[n, m]))
                assert off <= 1e-9 * scale


def test_infinite_family_orthogonality():
    q = 0.5
    fams = [
        FamilyParams("little_q_jacobi", q, a=0.4, b=0.3),
        FamilyParams("wall", q, a=0.4),
        FamilyParams("moak", q, alpha=0.7),
        FamilyParams("al_salam_carlitz_u", q, a=-0.6),
    ]
    for fam in fams:
        gram = family_gram_matrix(fam, 3)
        diag = [abs(complex(gram[n, n])) for n in range(4)]
        scale = max(diag)
        assert all(d > 0 for d in diag)
        for n in range(4):
            for m in range(n + 1, 4):
                off = abs(complex(gram[n, m]))
                assert off <= 1e-9 * scale


# one parameter set per registered family
FAMILY_SAMPLES = {
    "q_hahn": dict(a=0.4, b=0.3, N=5),
    "q_krawtchouk": dict(b=0.6, N=5),
    "affine_q_krawtchouk": dict(a=0.5, N=5),
    "affine_qinv_krawtchouk": dict(b=0.7, N=5),
    "q_meixner": dict(a=0.4, c=0.8),
    "big_q_laguerre": dict(a=0.4, c=1.0, d=1.3),
    "wall": dict(a=0.4),
    "moak": dict(alpha=0.7),
    "al_salam_carlitz_u": dict(a=-0.6),
    "al_salam_carlitz_v": dict(a=0.7),
    "stieltjes_wigert": dict(),
    "little_q_jacobi": dict(a=0.4, b=0.3),
    "case_3a": dict(b=0.5),
    "q_racah": dict(alpha=0.4, beta=0.3, gamma=0.5**-6.0, delta=0.6, N=5),
}


def test_every_registered_family():
    assert set(FAMILY_SAMPLES) == set(_FAMILIES)
    q, x, nmax = 0.5, 0.35, 3
    for name, kw in FAMILY_SAMPLES.items():
        fam = FamilyParams(name, q, **kw)
        for n in range(nmax + 1):
            v = complex(family_eval(fam, n, x))
            assert math.isfinite(abs(v)), (name, n)
            try:
                alt = complex(family_eval(fam, n, x, form="alt"))
            except DomainError:
                continue
            assert abs(v - alt) <= 1e-9 * max(1.0, abs(v), abs(alt)), (name, n)
        if fam.record.gram is None:
            with pytest.raises(DomainError):
                family_gram_matrix(fam, nmax)
            continue
        g = family_gram_matrix(fam, nmax)
        scale = max(abs(g[n, n]) for n in range(nmax + 1))
        norms = family_norms(fam, nmax)
        for n in range(nmax + 1):
            assert abs(g[n, n]) > 0, (name, n)
            if norms is not None:
                assert abs(g[n, n] - norms[n]) <= 1e-8 * abs(norms[n]), (name, n)
            for m in range(n + 1, nmax + 1):
                assert abs(g[n, m]) <= 1e-9 * scale, (name, n, m)


def test_family_norms_keep_each_degrees_bits():
    # one call per report; each diagonal is the per-degree closed form
    rng = random.Random(25)
    for _ in range(30):
        q = rng.uniform(0.1, 0.95)
        a, b, u = rng.uniform(0.05, 0.95), rng.uniform(-0.9, 0.9), -rng.uniform(0.1, 3.0)
        nmax = rng.randrange(0, 12)
        degrees = range(nmax + 1)
        assert family_norms(FamilyParams("al_salam_carlitz_u", q, a=u), nmax) == [
            _big_qjacobi_norm(n, BigQJacobiParams(0, 0, 1.0, -u, q)) for n in degrees
        ]
        assert family_norms(FamilyParams("wall", q, a=a), nmax) == [
            _little_qjacobi_norm(n, a, 0.0, q) for n in degrees
        ]
        assert family_norms(FamilyParams("little_q_jacobi", q, a=a, b=b), nmax) == [
            _little_qjacobi_norm(n, a, b, q) for n in degrees
        ]
    assert family_norms(FamilyParams("moak", 0.5, alpha=0.7), 3) is None
    with pytest.raises(DomainError):
        family_norms(FamilyParams("wall", 0.5, a=0.4), -1)


# the per-degree closed-form norms and the weights of the finite families,
# one qpoch per factor, degree and node: the second path of the running
# products in askey_wilson and qorthopoly


def _aw_norm(n, p):
    a, b, c, d = p.abcd
    q, abcd = p.q, a * b * c * d
    pairs = [q, a * b, a * c, a * d, b * c, b * d, c * d]
    return qpoch_inf_ratio([abcd], pairs, q) * (
        (1.0 - q ** float(n - 1) * abcd)
        * qpoch_list(pairs, q, n)
        / ((1.0 - q ** float(2 * n - 1) * abcd) * qpoch(abcd, q, n))
    )


def _big_qjacobi_norm(n, p):
    q, a, b, c, d = p.q, p.a, p.b, p.c, p.d
    return (
        q ** (n * (n - 1) / 2)
        * (c * d) ** n
        * qpoch_list([q, q * a, q * b, -q * b * c / d, -q * a * d / c], q, n)
        / (qpoch(q * q * a * b, q, 2 * n) * qpoch(q ** float(n + 1) * a * b, q, n))
    ) * big_qjacobi_weight_integral(p)


def _little_qjacobi_norm(n, a, b, q):
    return (
        (q * a) ** n
        * (1.0 - q * a * b)
        * qpoch(q * b, q, n)
        * qpoch(q, q, n)
        / ((1.0 - q ** float(2 * n + 1) * a * b) * qpoch(q * a, q, n) * qpoch(q * a * b, q, n))
    )


def _q_hahn_weight(x, a, b, big_n, q):
    return (
        qpoch(a * q, q, x)
        * qpoch(b * q, q, big_n - x)
        * (a * q) ** float(-x)
        / (qpoch(q, q, x) * qpoch(q, q, big_n - x))
    )


def _q_krawtchouk_weight(x, b, big_n, q):
    return qpoch(q ** float(-big_n), q, x) * (-b) ** x / qpoch(q, q, x)


def _affine_qinv_krawtchouk_weight(x, b, big_n, q):
    return (
        qpoch(b * q, q, big_n - x)
        * (-1.0) ** (big_n - x)
        * q ** (x * (x - 1) / 2)
        / (qpoch(q, q, x) * qpoch(q, q, big_n - x))
    )


def test_big_qjacobi_norm_past_an_overflowing_power_matches_mpmath():
    # (cd)^n overflows from n = 52 while q^{n(n-1)/2} (cd)^n times the rest
    # stays a double through n = 70; 50-digit closed form from the same doubles
    p = BigQJacobiParams(0.5, 0.4, 1e3, 1e3, 0.9)
    norms = big_qjacobi_norms(70, p)
    with mpmath.workdps(50):
        a, b, c, d, q = (mpmath.mpf(v) for v in (0.5, 0.4, 1e3, 1e3, 0.9))
        qp = lambda e, m=None: mpmath.qp(e, q, m)
        mass = (1 - q) * c * qp(q) * qp(-d / c) * qp(-q * c / d) * qp(q * q * a * b)
        mass /= qp(q * a) * qp(q * b) * qp(-q * b * c / d) * qp(-q * a * d / c)
        for n in (52, 60, 70):
            ref = q ** (n * (n - 1) / 2) * (c * d) ** n * mass
            ref *= qp(q, n) * qp(q * a, n) * qp(q * b, n) * qp(-q * b * c / d, n)
            ref *= qp(-q * a * d / c, n) / (qp(q * q * a * b, 2 * n) * qp(q ** (n + 1) * a * b, n))
            assert abs(norms[n] / complex(ref) - 1) <= 1e-12, n
    assert big_qjacobi_norms(60, p)[52] == norms[52]
    with pytest.raises(OutOfRangeError, match="h_71"):
        big_qjacobi_norms(71, p)


def test_norms_and_weights_keep_each_degrees_bits():
    # the norm lists and the finite weights read every (e;q)_n from one
    # running product; each entry equals its per-degree (per-node) form, and
    # each public per-degree norm is that entry
    rng = random.Random(28)
    s = lambda lo, hi: rng.uniform(lo, hi) * rng.choice((-1.0, 1.0))
    for _ in range(20):
        q = rng.uniform(0.05, 0.95)
        nmax = rng.randrange(0, 16)
        degrees = range(nmax + 1)
        a, b = s(0.05, 0.95), s(0.05, 0.95)
        if rng.random() < 0.5:  # a conjugate pair
            p = AWParams(complex(a, b), complex(a, -b), s(0.05, 0.95), s(0.05, 0.95), q)
        else:
            p = AWParams(a, b, s(0.05, 0.95), s(0.05, 0.95), q)
        want = [_aw_norm(n, p) for n in degrees]
        assert aw_norms(nmax, p) == want
        assert [aw_norm(n, p) for n in degrees] == want
        # a, b above -c/(dq) and -d/(cq): the positive-weight regime
        a, b = rng.uniform(-0.15, 0.95), rng.uniform(-0.15, 0.95)
        p = BigQJacobiParams(a, b, rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0), q)
        want = [_big_qjacobi_norm(n, p) for n in degrees]
        assert big_qjacobi_norms(nmax, p) == want
        assert [big_qjacobi_norm(n, p) for n in degrees] == want
        a, b = rng.uniform(0.05, 0.95), s(0.05, 0.95)
        for name, kw, b_form in [("little_q_jacobi", dict(a=a, b=b), b), ("wall", dict(a=a), 0.0)]:
            want = [_little_qjacobi_norm(n, a, b_form, q) for n in degrees]
            assert family_norms(FamilyParams(name, q, **kw), nmax) == want
            assert [little_qjacobi_norm(n, a, b_form, q) for n in degrees] == want
        big_n = rng.randrange(0, 25)
        points = range(big_n + 1)
        assert _q_hahn_weights(a, b, big_n, q) == [_q_hahn_weight(x, a, b, big_n, q) for x in points]
        assert _q_hahn_weights(a, 0, big_n, q) == [_q_hahn_weight(x, a, 0, big_n, q) for x in points]
        assert _q_krawtchouk_weights(b, big_n, q) == [
            _q_krawtchouk_weight(x, b, big_n, q) for x in points
        ]
        assert _affine_qinv_krawtchouk_weights(b, big_n, q) == [
            _affine_qinv_krawtchouk_weight(x, b, big_n, q) for x in points
        ]


def test_al_salam_carlitz_u_series_matches_big_qjacobi_recurrence():
    # U_n^{(a)} = P~_n(x; 0, 0, 1, -a; q): the Gram and norm of U rely on it
    for q in (0.3, 0.7):
        for a in (-0.3, -0.6, -1.2):
            p = BigQJacobiParams(0, 0, 1.0, -a, q)
            for n in range(9):
                for x in (a, 0.0, 0.4, 1.0):
                    u = complex(al_salam_carlitz_u(n, x, a, q))
                    v = complex(big_qjacobi_monic(n, x, p))
                    assert abs(u - v) <= 1e-9 * max(1.0, abs(u)), (q, a, n, x)


def test_family_params_stores_integer_n():
    fam = FamilyParams("q_hahn", 0.5, a=0.4, b=0.3, N=5.0)
    assert fam["N"] == 5 and isinstance(fam["N"], int)
    want = family_gram_matrix(FamilyParams("q_hahn", 0.5, a=0.4, b=0.3, N=5), 2)
    assert (family_gram_matrix(fam, 2) == want).all()
    for bad in (5.5, -1, 61, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            FamilyParams("q_hahn", 0.5, a=0.4, b=0.3, N=bad)


def test_family_params_validates_keys():
    with pytest.raises(DomainError):
        FamilyParams("wall", 0.5, bogus=1.0)
    with pytest.raises(DomainError):
        FamilyParams("no_such_family", 0.5)


def test_quadratic_transform_even_odd():
    q, a = 0.9, 0.45
    p = BigQJacobiParams(a, a, 1.0, 1.0, q)
    for n in range(0, 5):
        for x in (0.2, 0.35, 0.6):
            even, odd = quadratic_transform_check(n, a, q, x=x)
            s = max(
                1.0,
                abs(big_qjacobi(2 * n, x, p)),
                abs(big_qjacobi(2 * n + 1, x, p)),
            )
            assert abs(even) <= 1e-9 * s
            assert abs(odd) <= 1e-9 * s


def test_quadratic_transform_u():
    q = 0.9
    for n in range(0, 9):
        for x in (0.7, 1.2):
            u = family_eval(FamilyParams("al_salam_carlitz_u", q, a=-1.0), n, x)
            r1, r2 = quadratic_transform_u(n, x, q)
            s = max(1.0, abs(u))
            assert abs(r1) <= 1e-9 * s
            assert abs(r2) <= 1e-9 * s


def test_quadratic_transform_v():
    from qspecial import SeriesSpec, eval_phi

    q = 0.9
    for n in range(0, 9):
        for x in (0.8, 1.3):
            r = quadratic_transform_v(n, x, q)
            rhs = x**n * eval_phi(
                SeriesSpec(
                    [q ** float(-n), q ** float(-n + 1)],
                    [0],
                    q * q,
                    -q * q / (x * x),
                )
            )
            assert abs(r) <= 1e-9 * max(1.0, abs(rhs))


SERIES_GRAMS = (
    (FamilyParams("little_q_jacobi", 0.5, a=0.4, b=0.3), 5),
    (FamilyParams("wall", 0.6, a=0.4), 5),
    (FamilyParams("q_hahn", 0.5, a=0.4, b=0.6, N=8), 6),
    (FamilyParams("q_krawtchouk", 0.5, b=0.7, N=8), 6),
    (FamilyParams("affine_q_krawtchouk", 0.5, a=0.4, N=8), 6),
    (FamilyParams("affine_qinv_krawtchouk", 0.5, b=0.7, N=8), 6),
    (FamilyParams("q_racah", 0.5, alpha=0.4, beta=0.6, gamma=0.5**-9.0, delta=0.3, N=8), 5),
)


def test_series_grams_make_no_point_kernel_calls(monkeypatch):
    # each Gram sums a degree's series at all its nodes in one numpy walk;
    # a series at a point is still one phi_sum walk
    calls = []
    phi_sum = kernels.phi_sum
    monkeypatch.setattr(kernels, "phi_sum", lambda *args: calls.append(args) or phi_sum(*args))
    for fam, nmax in SERIES_GRAMS:
        family_gram_matrix(fam, nmax)
    assert calls == []
    for fam, nmax in SERIES_GRAMS:
        family_eval(fam, nmax, 0.5)
    assert len(calls) == len(SERIES_GRAMS)


def _per_degree_table(series, nmax, nodes):
    """The values as the Gram builders once formed them: one walk over the
    nodes per degree."""
    return np.array([series(n, nodes) for n in range(nmax + 1)])


def test_series_grams_make_one_walk_per_pass_or_grid(monkeypatch):
    # every degree's series is summed at a lattice pass's nodes, or at the
    # finite grid, in one walk (a column of degrees against the row of
    # nodes), and the table keeps the bits of the walks per degree
    walks, tables = [], []
    phi_nodes = qseries._phi_nodes
    monkeypatch.setattr(qseries, "_phi_nodes", lambda spec: walks.append(1) or phi_nodes(spec))

    def counted(values):
        def one_pass(x):
            start = len(walks)
            tables.append((x, values(x), len(walks) - start))
            return tables[-1][1]

        return one_pass

    def walk(values, *lattices):
        return lattice_gram(counted(values), *lattices)

    monkeypatch.setattr(qorthopoly, "lattice_gram", walk)
    gram = qorthopoly.gram  # a finite grid's table, after its walks
    record = lambda v, w: tables.append((None, v, len(walks))) or gram(v, w)
    monkeypatch.setattr(qorthopoly, "gram", record)

    for fam, nmax in SERIES_GRAMS:
        walks.clear()
        tables.clear()
        family_gram_matrix(fam, nmax)
        series = lambda n, x: family_eval(fam, n, x)
        if "N" in fam.record.keys:
            ((_, v, count),) = tables
            grid = np.array([fam.q ** float(-x) for x in range(fam["N"] + 1)])
            assert count == 1
            assert np.array_equal(v, _per_degree_table(series, nmax, grid))
        else:
            assert tables and len(walks) == len(tables)
            for x, v, count in tables:
                assert count == 1
                assert np.array_equal(v, _per_degree_table(series, nmax, x))


@pytest.mark.parametrize("fam, nmax", SERIES_GRAMS[2:4])
def test_finite_gram_in_a_scope_reports_the_worst_kappa_of_its_series(fam, nmax):
    # the walks over nodes record the worst sum |t_k| / |sum t_k| of their
    # nodes, so the Gram's scope sees what the point series at its nodes see
    nodes = [fam.q ** float(-x) for x in range(fam["N"] + 1)]
    with _conditioning_scope() as gram:
        family_gram_matrix(fam, nmax)
    with _conditioning_scope() as points:
        for n in range(nmax + 1):
            for x in nodes:
                family_eval(fam, n, x)
    assert points.worst > 1.0
    assert gram.worst == pytest.approx(points.worst, rel=1e-12)


def _racah_draw(rng, case):
    """(alpha, beta, gamma, delta, q, N) with (alpha q, beta delta q,
    gamma q)[case] = q^-N; each other parameter is 0 one time in ten."""
    q, big_n = rng.uniform(0.1, 0.8), rng.randint(1, 30)
    signed = lambda: rng.choice((-1, 1)) * rng.uniform(0.05, 0.95)
    alpha, beta, gamma, delta = (0.0 if rng.random() < 0.1 else signed() for _ in range(4))
    top = q ** float(-big_n - 1)
    if case == 0:
        alpha = top
    elif case == 1:
        delta = signed()
        beta = top / delta
    else:
        gamma = top
    return alpha, beta, gamma, delta, q, big_n


def _double_range(values):
    return all(v == 0 or sys.float_info.min <= abs(v) <= sys.float_info.max for v in values)


def test_q_racah_weights_and_norms_match_the_80_digit_oracle():
    # the running products against KLS's product form and against sum w
    # with the recurrence ratio; a reference outside the double range is an
    # OutOfRangeError, and a vanishing denominator a DomainError
    rng = random.Random(37)
    draws = [_racah_draw(rng, i % 3) for i in range(330)]
    draws += [(0.5, 0.5, 0.1**-31.0, 0.5, 0.1, 30), (0.1**-31.0, 0.5, 0.5, 0.5, 0.1, 30)]
    compared = 0
    for alpha, beta, gamma, delta, q, big_n in draws:
        params = (alpha, beta, gamma, delta, big_n, q)
        weights = lambda: _q_racah_weights(*params)
        norms = lambda: _q_racah_norms(big_n, *params)
        try:
            ref_w, ref_h = q_racah_oracle(alpha, beta, gamma, delta, q, big_n)
        except ZeroDivisionError:
            for build in (weights, norms):
                with pytest.raises(DomainError, match="divides by 0"):
                    build()
            continue
        for build, ref, tol in ((weights, ref_w, 1e-12), (norms, ref_h, 1e-11)):
            if not _double_range(ref):
                with pytest.raises(OutOfRangeError):
                    build()
                continue
            got = build()
            compared += 1
            for v, r in zip(got, ref, strict=True):
                assert abs(v - r) <= tol * abs(r), (params, v, r)
    assert compared >= 600


def test_q_racah_at_delta_zero_is_q_hahn():
    # the top arrow of the tableau: at delta = 0 and gamma q = q^-N the
    # q-Racah weights are the q-Hahn weights up to a constant, and the two
    # Grams agree up to it
    a, b, q, big_n = 0.4, 0.3, 0.5, 6
    ratio = np.array(_q_racah_weights(a, b, q ** float(-big_n - 1), 0.0, big_n, q))
    ratio = ratio / np.array(_q_hahn_weights(a, b, big_n, q))
    assert ratio[0] == pytest.approx(0.40065732, rel=1e-8)
    assert np.all(np.abs(ratio / ratio[0] - 1.0) <= 1e-13)
    gamma = q ** float(-big_n - 1)
    racah = FamilyParams("q_racah", q, alpha=a, beta=b, gamma=gamma, delta=0.0, N=big_n)
    hahn = FamilyParams("q_hahn", q, a=a, b=b, N=big_n)
    g_racah, g_hahn = family_gram_matrix(racah, big_n), family_gram_matrix(hahn, big_n)
    scale = np.abs(np.diag(g_racah)).max()
    assert np.abs(g_racah - ratio[0] * g_hahn).max() <= 1e-11 * scale
    norms = family_norms(racah, big_n)
    assert np.allclose(np.diag(g_racah), norms, rtol=1e-10, atol=0)


def test_q_racah_measure_on_a_folded_lattice_raises():
    # gamma delta q = q^-m with 1 <= m <= 2N - 1 gives mu(x) = mu(m - x);
    # the weights, norms and Gram raise, and the point values stay
    q, big_n = 0.5, 4
    gamma = q ** float(-big_n - 1)
    for m in (1, 3, 7):
        params = (0.3, 0.4, gamma, q ** float(-m) / (gamma * q))
        fam = FamilyParams("q_racah", q, **dict(zip(("alpha", "beta", "gamma", "delta"), params)),
                           N=big_n)
        for build in (lambda: _q_racah_weights(*params, big_n, q),
                      lambda: _q_racah_norms(2, *params, big_n, q),
                      lambda: family_gram_matrix(fam, 2)):
            with pytest.raises(DomainError, match=rf"q\^-{m}: the points mu\(x\) and mu\({m} - x\)"):
                build()
        for x in range(big_n + 1):
            value = qorthopoly.q_racah(2, x, *params, q, big_n)
            assert value == family_eval(fam, 2, q ** float(-x))
    # m = 0 folds no two points: the weights' 1 - gamma delta q cancels
    fam = FamilyParams("q_racah", q, alpha=0.3, beta=0.4, gamma=gamma, delta=q ** float(big_n),
                       N=big_n)
    gram, norms = family_gram_matrix(fam, big_n), family_norms(fam, big_n)
    assert np.allclose(np.diag(gram), norms, rtol=1e-12, atol=0)
    assert np.abs(gram - np.diag(np.diag(gram))).max() <= 1e-12 * np.abs(norms).max()


def test_q_racah_zero_denominators_name_their_entry():
    q, big_n = 0.5, 4
    gamma = q ** float(-big_n - 1)
    with pytest.raises(DomainError, match=r"weight w\(2\) divides by 0"):
        _q_racah_weights(gamma, 0.4, 0.3, q**-2.0, big_n, q)  # (delta q;q)_2 = 0
    with pytest.raises(DomainError, match="norm h_2 divides by 0"):
        _q_racah_norms(big_n, q**-2.0, 0.4, gamma, 0.3, big_n, q)  # 1 - alpha q^2 = 0
    fam = FamilyParams("q_racah", q, alpha=0.3, beta=0.4, gamma=gamma, delta=0.3, N=big_n)
    with pytest.raises(DomainError, match="t != 0"):
        family_eval(fam, 1, 0.0)
