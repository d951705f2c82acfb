"""Tests for Askey-Wilson polynomials, weight, integral, and relatives.

Oracles: the closed-form integral with its two pinned special values,
trapezoid quadrature on the continuous weight, and the three-term
recurrence as an independent evaluation path.
"""

import cmath
import json
import math
import random

import mpmath
import numpy as np
import pytest

from qspecial import (
    AWParams,
    INFINITY,
    aw_integral_closed,
    aw_integral_numeric,
    aw_norm,
    aw_poly,
    aw_poly_by_recurrence,
    aw_recurrence,
    continuous_q_hermite,
    q_racah,
    q_ultraspherical,
    qpoch,
)
from qspecial.askey_wilson import (
    _midpoint_grid,
    _z_of_x,
    aw_gram_quadrature,
    aw_leading_coefficient,
    aw_qdifference_residual,
    aw_recurrence_table,
)
from qspecial.cli import main
from qspecial.errors import ConvergenceError, DomainError, OutOfRangeError
from qspecial.qcore import qpoch_inf_ratio
from qspecial.qorthopoly import FamilyParams, _q_racah_weights, family_gram_matrix
from qspecial.recurrence import eval_all

from mp_oracle import log_qpoch_oracle

P = AWParams(0.6, 0.4, -0.3, 0.2, 0.55)


def test_integral_pin_values():
    q = 0.55
    sq = math.sqrt(q)
    pinned = AWParams(1.0, sq, -1.0, -sq, q)
    assert complex(aw_integral_closed(pinned)).real == pytest.approx(1.0, abs=1e-10)
    zero = AWParams(0.0, 0.0, 0.0, 0.0, q)
    want = 2.0 / complex(qpoch(q, q, INFINITY)).real
    assert complex(aw_integral_closed(zero)).real == pytest.approx(
        want, rel=1e-10
    )


def test_integral_numeric_matches_closed():
    rng = random.Random(2)
    for _ in range(10):
        q = rng.uniform(0.2, 0.8)
        a = rng.uniform(-0.9, 0.9)
        b = rng.uniform(-0.9, 0.9)
        re = rng.uniform(-0.6, 0.6)
        im = rng.uniform(0.05, 0.6)
        if re * re + im * im > 0.81:
            continue
        p = AWParams(a, b, complex(re, im), complex(re, -im), q)
        closed = aw_integral_closed(p)
        # the quadrature covers theta in [0, pi], half the contour value
        numeric = 2.0 * aw_integral_numeric(p, n_nodes=512)
        assert abs(numeric - closed) <= 1e-8 * abs(closed)


def test_poly_degree_zero_is_one():
    assert complex(aw_poly(0, 0.3, P)).real == pytest.approx(1.0)


def test_poly_symmetric_in_parameters():
    # the 4phi3 representation privileges a; the polynomial does not
    swapped = AWParams(P.b, P.a, P.c, P.d, P.q)
    for n in range(1, 5):
        assert complex(aw_poly(n, 0.37, P)) == pytest.approx(
            complex(aw_poly(n, 0.37, swapped)), rel=1e-10
        )


def test_series_vs_recurrence():
    # q close to 1 keeps the terminating 4phi3 well conditioned at n = 8
    pp = AWParams(0.6, 0.4, -0.3, 0.2, 0.8)
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randrange(0, 9)
        x = rng.uniform(-1.0, 1.0)
        v1 = aw_poly(n, x, pp)
        v2 = aw_poly_by_recurrence(n, x, pp)
        assert abs(v1 - v2) <= 1e-9 * max(1.0, abs(v1), abs(v2))


def test_eval_all_rows_match_scalar_recurrence():
    nmax = 8
    xs = [-0.95, -0.3, 0.1, 0.7]
    rows = eval_all(aw_recurrence_table(nmax, P), xs)
    for j, x in enumerate(xs):
        prev, cur = 0.0, 1.0
        for n in range(nmax + 1):
            assert abs(rows[n, j] - cur) <= 1e-14 * max(1.0, abs(cur))
            assert rows[n, j] == aw_poly_by_recurrence(n, x, P)
            an, bn, cn = aw_recurrence(n, P)
            prev, cur = cur, ((2.0 * x - bn) * cur - cn * prev) / an


def test_aw_table_at_two_zero_parameters_is_the_al_salam_chihara_recurrence():
    # KLS section 14.8, for the leading coefficient 2^n:
    # 2x Q_n = Q_{n+1} + (a+b) q^n Q_n + (1-q^n)(1-ab q^{n-1}) Q_{n-1}
    c, d, q = 0.6, -0.35, 0.45
    rec = aw_recurrence_table(12, AWParams(c, d, 0, 0, q))
    qn = np.array([q**n for n in range(12)])
    assert rec.s == 2.0
    assert max(abs(rec.a - 1.0)) == 0.0
    assert max(abs(rec.b - (c + d) * qn)) <= 1e-15
    assert max(abs(rec.c - (1.0 - qn) * (1.0 - c * d * qn / q))) <= 1e-15
    xs = [-0.5, 0.25]
    rows = eval_all(rec, xs)
    # low degrees only: the 4phi3 series loses digits as n grows
    for n in (2, 4):
        for j, x in enumerate(xs):
            v = aw_poly(n, x, AWParams(c, d, 0, 0, q))
            assert abs(rows[n, j] - v) <= 1e-9 * max(1.0, abs(v))


def test_ortho_aw_degree_eight_report(capsys):
    # the Gram values come from the recurrence, which keeps its digits at
    # degree 8 where the 4phi3 series has lost about six
    code = main(
        "ortho aw a=0.6 b=0.4 c=-0.3 d=0.2 q=0.55 --nmax 8 --nodes 512 "
        "--format json".split()
    )
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    for row in rows:
        if row["n"] == row["m"]:
            want = complex(aw_norm(row["n"], P)).real
            assert abs(row["gram"] - want) <= 1e-8 * abs(want)


def test_leading_coefficient_matches_recurrence_normalization():
    # dividing by the leading coefficient must produce a monic polynomial:
    # check via the value growth at a large argument
    n = 3
    big = 25.0
    lead = aw_leading_coefficient(n, P)
    val = complex(aw_poly(n, big, P))
    # k_n is the coefficient of x^n, so val / lead ~ x^n far from [-1, 1]
    assert abs(val / lead) == pytest.approx(big**n, rel=0.1)


def test_gram_quadrature_orthogonality():
    gram = aw_gram_quadrature(P, 5, n_nodes=1024)
    diag = [complex(aw_norm(n, P)).real for n in range(6)]
    scale = max(abs(d) for d in diag)
    for n in range(6):
        for m in range(6):
            g = complex(gram[n][m]).real
            if n == m:
                assert abs(g - diag[n]) <= 1e-8 * max(abs(diag[n]), 1e-300)
            else:
                assert abs(g) <= 1e-9 * scale


@pytest.mark.parametrize("n_nodes", [0, 2, 15])
def test_quadratures_need_sixteen_nodes(n_nodes):
    # at q = 0.5 two nodes gave a Gram whose (0, 0) entry was 5.15 against
    # a norm of 4.58, and none a bare numpy ValueError: both rules share
    # one floor
    with pytest.raises(DomainError, match="n_nodes >= 16"):
        aw_gram_quadrature(P, 2, n_nodes=n_nodes)
    with pytest.raises(DomainError, match="n_nodes >= 16"):
        aw_integral_numeric(P, n_nodes=n_nodes)


def test_qdifference_residual():
    for n in range(0, 6):
        for theta in (0.4, 1.1, 2.0):
            z = cmath.exp(1j * theta)
            res = aw_qdifference_residual(n, z, P)
            s = max(1.0, abs(aw_poly(n, math.cos(theta), P)))
            assert abs(res) <= 1e-9 * s


def test_continuous_q_hermite_recurrence():
    # H_{n+1} = 2x H_n - (1-q^n) H_{n-1}
    q, theta = 0.5, 0.8
    x = math.cos(theta)
    h = [complex(continuous_q_hermite(n, x, q)) for n in range(7)]
    for n in range(1, 6):
        lhs = h[n + 1]
        rhs = 2 * x * h[n] - (1 - q**n) * h[n - 1]
        assert lhs == pytest.approx(rhs, rel=1e-11)


def test_q_ultraspherical_three_forms():
    q, beta = 0.85, 0.45
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randrange(0, 9)
        theta = rng.uniform(0.1, math.pi - 0.1)
        v1 = complex(q_ultraspherical(n, theta, beta, q, form="fourier"))
        v2 = complex(q_ultraspherical(n, theta, beta, q, form="phi"))
        v3 = complex(q_ultraspherical(n, theta, beta, q, form="aw"))
        s = max(1.0, abs(v1))
        assert abs(v1 - v2) <= 1e-9 * s
        assert abs(v1 - v3) <= 1e-9 * s


def test_fourier_sums_keep_the_bits_of_their_per_k_forms():
    # continuous q-Hermite and the fourier form of q-ultraspherical read
    # each (e;q)_k from one running product; each equals its sum with one
    # qpoch per factor and k
    rng = random.Random(29)
    s = lambda lo, hi: rng.uniform(lo, hi) * rng.choice((-1.0, 1.0))
    for i in range(300):
        q, n = rng.uniform(0.05, 0.95), rng.randrange(0, 25)
        x = s(0.0, 1.5) if i % 2 else complex(s(0.0, 2.0), s(0.0, 1.0))
        z = _z_of_x(x)
        want = 0.0 + 0.0j
        for k in range(n + 1):
            want += qpoch(q, q, n) / (qpoch(q, q, k) * qpoch(q, q, n - k)) * z ** (n - 2 * k)
        assert continuous_q_hermite(n, x, q) == want
        theta = rng.uniform(0.0, math.pi)
        beta = s(0.0, 1.5) if i % 2 else complex(s(0.0, 1.0), s(0.0, 1.0))
        want = 0.0 + 0.0j
        for k in range(n + 1):
            want += (
                qpoch(beta, q, k)
                * qpoch(beta, q, n - k)
                / (qpoch(q, q, k) * qpoch(q, q, n - k))
                * cmath.exp(1j * (n - 2 * k) * theta)
            )
        assert q_ultraspherical(n, theta, beta, q) == want


def test_values_above_the_double_range_raise_naming_the_function():
    # by a 50-digit sum |H_53| = 8.5e311 and |C_59| = 3.3e353 here; the
    # first raised a bare OverflowError, the second returned nan+nanj
    with pytest.raises(OutOfRangeError, match="continuous_q_hermite"):
        continuous_q_hermite(53, 384113.5376906186, 0.9999982417843735)
    with pytest.raises(OutOfRangeError, match="continuous_q_hermite"):
        continuous_q_hermite(53, -384113.5376906186, 0.9999982417843735)
    with pytest.raises(OutOfRangeError, match="q_ultraspherical"):
        q_ultraspherical(59, 944.6109528019897, -497.7322272614577, 0.9999762513462691)
    with pytest.raises(DomainError):
        continuous_q_hermite(3, math.nan, 0.5)
    with pytest.raises(DomainError):
        q_ultraspherical(3, math.inf, 0.4, 0.5)


def test_askey_wilson_values_above_the_double_range_raise_naming_the_function():
    # by sums at 400 digits: |H_58| = 2.6e479, |p_53| = 8.5e311 (all four
    # parameters 0, so p_53 = H_53), p_50 = 5.5e321 and 8.0e319.  They
    # raised a bare ZeroDivisionError and OverflowError, returned inf+0j,
    # and warned of a numpy overflow before returning NaN
    with pytest.raises(OutOfRangeError, match="continuous_q_hermite"):
        continuous_q_hermite(58, -92193922.45920677, 0.7167999994671996)
    with pytest.raises(OutOfRangeError, match="aw_poly"):
        aw_poly(53, 384113.5376906186, AWParams(0, 0, 0, 0, 0.9999982417843735))
    p = AWParams(0.5129505999112756, 0.3529907616933021, 0.417716227885905,
                 -0.047188789412003995, 0.7512897519033285)
    with pytest.raises(OutOfRangeError, match="aw_poly"):
        aw_poly(50, 1360651.0082836784, p)
    p = AWParams(0.13644445080464673, -0.43779809119683, -0.10431533098815082,
                 0.5119009183919174, 0.48213506823421975)
    with pytest.raises(OutOfRangeError, match="aw_poly_by_recurrence"):
        aw_poly_by_recurrence(50, 1250318.521736057, p)


def test_z_of_a_far_negative_x_is_the_root_that_does_not_cancel():
    # x + sqrt(x^2 - 1) rounds to 0 at x = -1e8; H_1 = 2x all the same
    assert continuous_q_hermite(1, -1e8, 0.5) == -2e8
    assert aw_poly(1, -1e8, AWParams(0, 0, 0, 0, 0.5)) == -2e8


def test_z_of_a_negative_x_below_minus_one_keeps_its_digits():
    # x + sqrt(x^2 - 1) cancels for real x < -1, and more so as |x| grows
    q = 0.5
    want = 4.0 * 1e12 - (1.0 - q)  # H_2 = 4x^2 - (1 - q) at x = -1e6
    assert abs(continuous_q_hermite(2, -1e6, q) - want) <= 1e-15 * want
    p = AWParams(0.3, 0.2, -0.1, 0.4, 0.6)
    series, rec = aw_poly(3, -5e3, p), aw_poly_by_recurrence(3, -5e3, p)
    assert abs(series - rec) <= 1e-14 * abs(rec)


def test_q_racah_value_at_first_node():
    # R_n(mu(0)) = 1
    alpha, beta, gamma, delta, q, N = 0.4, 0.3, None, 0.6, 0.5, 5
    gamma = q ** float(-N - 1)  # gamma q = q^{-N}
    for n in range(N + 1):
        val = q_racah(n, 0, alpha, beta, gamma, delta, q, N)
        assert complex(val).real == pytest.approx(1.0, rel=1e-11)


def test_q_racah_orthogonality():
    q, N = 0.5, 5
    alpha, beta, delta = 0.4, 0.3, 0.6
    gamma = q ** float(-N - 1)
    fam = FamilyParams("q_racah", q, alpha=alpha, beta=beta, gamma=gamma, delta=delta, N=N)
    gram = family_gram_matrix(fam, 3)
    diag = [abs(gram[n, n]) for n in range(4)]
    scale = max(diag)
    assert all(d > 0 for d in diag)
    for n in range(4):
        for m in range(n + 1, 4):
            assert abs(gram[n, m]) <= 1e-9 * scale


def test_q_racah_requires_termination_condition():
    with pytest.raises(DomainError):
        q_racah(1, 0, 0.4, 0.3, 0.37, 0.6, 0.5, 5)


def test_q_racah_accepts_gamma_q_formed_either_way():
    # gamma q is q^-N by the rule whether gamma is a pow or N + 1 divisions
    # by q; at q = 0.7 the two round apart for every N here
    q, alpha, beta, delta = 0.7, 0.4, 0.3, 0.6
    for N in range(2, 12):
        divided = 1.0
        for _ in range(N + 1):
            divided /= q
        assert divided != q ** float(-N - 1)
        for gamma in (q ** float(-N - 1), divided):
            assert complex(q_racah(1, 0, alpha, beta, gamma, delta, q, N)).real == pytest.approx(1.0)


def test_q_racah_rejects_gamma_q_outside_the_rule():
    # q^-N (1 + 1e-11) is no q^-N, though a relative window of 1e-10 took it
    q, N = 0.5, 5
    with pytest.raises(DomainError):
        q_racah(1, 0, 0.4, 0.3, q ** float(-N) * (1 + 1e-11) / q, 0.6, q, N)


def test_recurrence_coefficients_positive_c():
    # positivity of the C_n coefficients certifies orthogonality
    for n in range(1, 7):
        _, _, cn = aw_recurrence(n, P)
        assert complex(cn).real > 0


def test_q_racah_gram_matrix_matches_entries():
    # the weights formed once for the whole matrix; the entries summed one by one
    alpha, beta, gamma, delta, q, N = 0.4, 0.3, 128.0, 0.6, 0.5, 6
    fam = FamilyParams("q_racah", q, alpha=alpha, beta=beta, gamma=gamma, delta=delta, N=N)
    gram = family_gram_matrix(fam, N)
    w = _q_racah_weights(alpha, beta, gamma, delta, N, q)
    nodes = range(N + 1)
    values = [[q_racah(n, x, alpha, beta, gamma, delta, q, N) for x in nodes] for n in nodes]
    scale = max(abs(gram[n, n]) for n in range(N + 1))
    for n in range(N + 1):
        for m in range(N + 1):
            entry = sum(values[n][x] * values[m][x] * w[x] for x in range(N + 1))
            assert abs(gram[n, m] - entry) <= 1e-13 * scale


def test_q_racah_at_all_points_is_the_point_values():
    # a real walk over the points runs in float64, with the point's q^-x
    rng = random.Random(12)
    for _ in range(20):
        q, alpha, beta, delta = rng.uniform(0.1, 0.9), *(rng.uniform(0.05, 0.95) for _ in range(3))
        N = rng.randrange(1, 16)
        n, gamma = rng.randrange(N + 1), q ** float(-N - 1)
        values = q_racah(n, np.arange(N + 1), alpha, beta, gamma, delta, q, N)
        for x in range(N + 1):
            assert values[x] == q_racah(n, x, alpha, beta, gamma, delta, q, N)


def test_weight_grid_truncation_raises():
    # the grid's one peel is capped like every (a;q)_oo: at q = 1 - 1e-8 the
    # nodes with |z^2| = 1 would need 0.69/(1-q) peeled factors
    with pytest.raises(ConvergenceError, match="peel 69314718 factors, more than 10000000"):
        aw_integral_numeric(AWParams(0.6, 0.4, -0.3, 0.2, 1.0 - 1e-8))


@pytest.mark.parametrize("a", [0.6, 0.99])
def test_integral_numeric_near_q_one(a):
    # 0.69/(1-q) = 231 peeled factors per node, past the old product budget
    p = AWParams(a, 0.4, -0.3, 0.2, 0.997)
    half = aw_integral_closed(p) / 2.0
    assert abs(aw_integral_numeric(p) - half) <= 1e-12 * abs(half)


def test_grid_weights_match_pointwise_weights():
    # node by node: the grid's one Fourier series against qpoch_inf_ratio of
    # the ten products at that node, and against the 50-digit oracle
    rng = random.Random(11)
    grids = []
    for _ in range(12):
        q = rng.uniform(0.2, 0.95)
        re, im = rng.uniform(-0.6, 0.6), rng.uniform(0.05, 0.6)
        p = AWParams(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9), complex(re, im),
                     complex(re, -im), q)
        grids.append((p, 16))
    # four real parameters on an odd grid, whose theta = pi node is its own
    # mirror; |e| up to 0.99; q = 0.98; a parameter of modulus above 1 (the
    # continuous part of the measure only); sets not closed under conjugation.
    # At 16 nodes every harmonic past the 16th folds onto a lower one.
    open_set = AWParams(0.5, -0.7, complex(0.3, 0.4), complex(-0.2, 0.4), 0.8)
    grids += [(AWParams(0.6, 0.4, -0.3, 0.2, 0.55), 17), (open_set, 16),
              (AWParams(0.99, -0.95, complex(0.3, 0.6), complex(0.3, -0.6), 0.9), 128),
              (AWParams(0.6, -0.5, 0.3, 0.2, 0.98), 128),
              (AWParams(1.5, 0.4, -0.3, 0.2, 0.55), 1024), (open_set, 1024)]
    for p, n_nodes in grids:
        q = p.q
        _, w, scale = _midpoint_grid(p, n_nodes)
        assert len(w) == n_nodes
        # on a long grid a fixed sample of nodes on the upper half circle,
        # away from theta = pi, where the rounding of theta alone moves the
        # factor 1 - z^2 by more than the bound
        nodes = range(n_nodes) if n_nodes < 32 else (0, 1, 2, n_nodes // 5, n_nodes // 3)
        for j in nodes:
            z = cmath.exp(1j * math.pi * ((2 * j + 1) / n_nodes))
            top = [z * z, 1.0 / (z * z)]
            bottom = [f for e in p.abcd for f in (e * z, e / z)]
            got = w[j] * scale * 2 * n_nodes
            point = qpoch_inf_ratio(top, bottom, q)
            assert abs(got - point) <= 1e-13 * abs(point)
            with mpmath.workdps(50):
                if p.conjugate_closed:
                    # |z| = 1, so z^{-2} and the e/z are the conjugates of
                    # z^2 and of the e'z, e' = conj(e) another parameter
                    log_w = 2 * mpmath.re(
                        log_qpoch_oracle(z * z, q)[0]
                        - sum(log_qpoch_oracle(e * z, q)[0] for e in p.abcd)
                    )
                else:
                    log_w = sum(log_qpoch_oracle(f, q)[0] for f in top) - sum(
                        log_qpoch_oracle(f, q)[0] for f in bottom
                    )
                want = mpmath.exp(log_w)
                assert float(abs(got - want) / abs(want)) <= 1e-13
    assert not open_set.conjugate_closed


@pytest.mark.parametrize("n_nodes", [16, 17, 128])
def test_grid_of_three_times_the_nodes_keeps_every_weight(n_nodes):
    # theta_j = pi (2j + 1) / N = pi (2(3j + 1) + 1) / (3N): node j of the
    # N-node grid is node 3j + 1 of the 3N-node grid, and its weight holds
    # through the other FFT length and the other scale
    for p in (P, AWParams(0.5, -0.7, complex(0.3, 0.4), complex(-0.2, 0.4), 0.8)):
        _, w, scale = _midpoint_grid(p, n_nodes)
        _, w3, scale3 = _midpoint_grid(p, 3 * n_nodes)
        coarse, fine = w * scale * n_nodes, w3[1::3] * scale3 * (3 * n_nodes)
        assert np.all(np.abs(coarse - fine) <= 1e-14 * np.abs(fine))


def test_h0_near_one_is_one_exp_of_logs():
    a, b, c, d = 0.6, 0.4, -0.3, 0.2
    pairs = [a * b, a * c, a * d, b * c, b * d, c * d]
    q = 0.995
    with mpmath.workdps(50):
        log_h0 = log_qpoch_oracle(a * b * c * d, q)[0] - sum(
            log_qpoch_oracle(v, q)[0] for v in [q] + pairs
        )
        want = mpmath.exp(log_h0)
        got = aw_norm(0, AWParams(a, b, c, d, q))
        assert float(abs(got - want) / abs(want)) <= 1e-11
    # at q = 0.998, h_0 = exp(882): no double holds it
    with pytest.raises(OutOfRangeError):
        aw_integral_closed(AWParams(a, b, c, d, 0.998))
