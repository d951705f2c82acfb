"""Tests for basic and bilateral hypergeometric series evaluation.

Oracles: direct term-by-term summation with mpmath at high precision,
plus classical closed forms (q-binomial theorem, triple product).
"""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspecial import (
    INFINITY,
    ConvergenceClass,
    SeriesSpec,
    classify,
    eval_phi,
    eval_psi,
    qpoch,
)
from qspecial.errors import ConvergenceError, DomainError, OutOfRangeError
from qspecial.limits import LimitReport as ConvergenceReport, confluence_limit_check
from qspecial import qseries
from qspecial.qseries import phi_walk, psi_walk, reverse_terminating

from mp_oracle import psi_oracle


def mp_phi(upper, lower, q, z, kmax=400):
    """Independent high-precision r_phi_s oracle."""
    mpmath.mp.dps = 40
    q = mpmath.mpf(q)
    total = mpmath.mpf(0)
    term = mpmath.mpf(1)
    sp = 1 + len(lower) - len(upper)
    for k in range(kmax):
        total += term
        num = mpmath.mpf(1)
        for a in upper:
            num *= 1 - mpmath.mpf(a) * q**k
        den = 1 - q ** (k + 1)
        for b in lower:
            den *= 1 - mpmath.mpf(b) * q**k
        if num == 0:
            break
        ratio = num / den * z * (-(q**k)) ** sp if sp else num / den * z
        if sp == 0:
            ratio = num / den * z
        term *= ratio
        if abs(term) < mpmath.mpf(10) ** (-35) * max(1, abs(total)):
            total += term
            break
    return float(total)


def test_classify_terminating():
    spec = SeriesSpec([0.5**-3, 0.2], [0.4], 0.5, 0.7)
    cls = classify(spec)
    assert cls.radius == "TERMINATING"
    assert cls.n == 3


def test_classify_radii():
    assert classify(SeriesSpec([0.3], [0.4, 0.5], 0.5, 1.0)).radius == "INFINITE"
    assert classify(SeriesSpec([0.3, 0.2], [0.4], 0.5, 0.5)).radius == "UNIT"
    assert classify(SeriesSpec([0.3, 0.2, 0.6], [0.4], 0.5, 0.5)).radius == "ZERO"


def test_forbidden_lower_parameter():
    # b = 1 is rejected at construction; other lattice points q^{-m} are
    # legal in specs (terminating series use them) but trip the zero
    # denominator check when a nonterminating evaluation reaches them
    with pytest.raises(DomainError):
        SeriesSpec([0.3], [1.0], 0.5, 0.1)
    with pytest.raises(DomainError):
        eval_phi(SeriesSpec([0.3], [0.5**-2], 0.5, 0.1))


def test_eval_phi_empty_series_is_one():
    assert eval_phi(SeriesSpec([0], [], 0.5, 0.0)) == pytest.approx(1.0)


def test_eval_phi_matches_mp_oracle_2phi1():
    q = 0.5
    val = eval_phi(SeriesSpec([0.3, 0.7], [0.4], q, 0.6))
    assert complex(val).real == pytest.approx(
        mp_phi([0.3, 0.7], [0.4], q, 0.6), rel=1e-13
    )


def test_eval_phi_matches_mp_oracle_1phi1():
    # excess lower parameter brings in the (-q^k) sign factor
    q = 0.7
    val = eval_phi(SeriesSpec([0.3], [0.4], q, 1.8))
    mpmath.mp.dps = 40
    total = mpmath.mpf(0)
    term = mpmath.mpf(1)
    for k in range(500):
        total += term
        qq = mpmath.mpf(q)
        ratio = (
            (1 - mpmath.mpf("0.3") * qq**k)
            / ((1 - qq ** (k + 1)) * (1 - mpmath.mpf("0.4") * qq**k))
            * mpmath.mpf("1.8")
            * (-(qq**k))
        )
        term *= ratio
    assert complex(val).real == pytest.approx(float(total), rel=1e-12)


def test_qbinomial_theorem():
    # 1phi0(a; -; q, z) = (az;q)_oo / (z;q)_oo
    a, q, z = 0.4, 0.6, 0.7
    lhs = eval_phi(SeriesSpec([a], [], q, z))
    rhs = qpoch(a * z, q, INFINITY) / qpoch(z, q, INFINITY)
    assert lhs == pytest.approx(rhs, rel=1e-13)


@given(
    n=st.integers(0, 8),
    b=st.floats(0.1, 0.8),
    c=st.floats(0.1, 0.8),
    q=st.floats(0.2, 0.8),
)
@settings(max_examples=40, deadline=None)
def test_terminating_phi_matches_finite_sum(n, b, c, q):
    z = 0.5
    spec = SeriesSpec([q ** float(-n), b], [c], q, z)
    val = eval_phi(spec)
    total = 0.0
    for k in range(n + 1):
        term = (
            qpoch(q ** float(-n), q, k)
            * qpoch(b, q, k)
            / (qpoch(c, q, k) * qpoch(q, q, k))
            * z**k
        )
        total += term
    assert abs(val - total) <= 1e-10 * max(1.0, abs(total))


@pytest.mark.parametrize("n", [0, 1, 40])
@pytest.mark.parametrize("q", [0.5, 0.7])
def test_termination_snaps_only_within_the_rounding_of_q_to_the_minus_n(n, q):
    # a parameter 8 (n + 1) ulps of q^{-n} either side of it terminates the
    # series at n, the next double beyond does not; a lower parameter so
    # near 1 = q^0 is refused by the same rule
    power = q ** float(-n)
    width = 8 * (n + 1) * math.ulp(power)
    for edge, beyond in ((power + width, math.inf), (power - width, -math.inf)):
        terminating = classify(SeriesSpec([edge, 0.3], [0.7], q, 0.5))
        assert terminating == ConvergenceClass("TERMINATING", n)
        outside = math.nextafter(edge, beyond)
        assert classify(SeriesSpec([outside, 0.3], [0.7], q, 0.5)).radius == "UNIT"
        if n == 0:
            with pytest.raises(DomainError, match="lower parameter"):
                SeriesSpec([0.3], [edge], q, 0.5)
            SeriesSpec([0.3], [outside], q, 0.5)


def test_spec_over_nodes_takes_the_point_degree_at_each_node():
    # entries at the snap width, one ulp beyond it, off the real line and
    # away from every q^{-n}: a spec over nodes stores at each node the
    # degree of the point spec there
    rng = random.Random(17)
    for _ in range(30):
        q = rng.uniform(0.1, 0.95)

        def draw():
            n = rng.randrange(41)
            power = q ** float(-n)
            edge = power + rng.choice((-1, 1)) * 8 * (n + 1) * math.ulp(power)
            beyond = math.nextafter(edge, 2 * edge - power)
            off = (rng.uniform(0.5, 2.0) * power, complex(power, 1e-3), rng.uniform(-1.0, 1.0))
            return rng.choice([power, edge, beyond, *off])

        col = np.array([[draw()] for _ in range(4)])
        row = np.array([draw() for _ in range(5)])
        degree = SeriesSpec([col, 0.3, row], [0.7], q, 0.5).degree
        assert degree.shape == (4, 5)
        for i, j in np.ndindex(degree.shape):
            point = SeriesSpec([col[i, 0], 0.3, row[j]], [0.7], q, 0.5).degree
            assert degree[i, j] == point


def test_near_negative_power_that_does_not_terminate_is_summed_by_its_radius():
    # 32 (1 + 1e-13) is not 2^5 within rounding: at z = 3 the series
    # diverges, and at z = 0.9 it is the sum of all its terms
    a = 32 * (1 + 1e-13)
    with pytest.raises(DomainError, match="requires"):
        eval_phi(SeriesSpec([a, 0.3], [0.7], 0.5, 3.0))
    value = eval_phi(SeriesSpec([a, 0.3], [0.7], 0.5, 0.9))
    assert abs(value / -18296.762194564056036 - 1) <= 1e-14


def test_unit_radius_rejects_large_argument():
    with pytest.raises(DomainError):
        eval_phi(SeriesSpec([0.3, 0.2], [0.4], 0.5, 1.5))


def test_zero_radius_rejects_nonzero_argument():
    with pytest.raises(DomainError):
        eval_phi(SeriesSpec([0.3, 0.2, 0.6], [0.4], 0.5, 0.1))


def test_reverse_terminating_preserves_value():
    q = 0.6
    n = 5
    spec = SeriesSpec([q ** float(-n), 0.3], [0.7], q, 0.4)
    rev_spec, prefactor = reverse_terminating(spec)
    assert prefactor * eval_phi(rev_spec) == pytest.approx(
        complex(eval_phi(spec)), rel=1e-11
    )


def test_reverse_terminating_with_a_vanishing_lower_product_raises():
    # (4;1/2)_5 has the factor 1 - 4 (1/2)^2 = 0: no prefactor exists
    q = 0.5
    spec = SeriesSpec([q ** -5.0, 0.3], [4.0], q, 0.4)
    with pytest.raises(DomainError, match="vanishes"):
        reverse_terminating(spec)


def test_eval_psi_triple_product():
    # 0psi0-style check via 1psi1 at b -> 0 is awkward; use the classical
    # sum_{k in Z} (-1)^k q^{k(k-1)/2} z^k = (q, z, q/z; q)_oo instead,
    # through the 1psi1 specialization b = 0, c = q, z -> z/...  Simpler:
    # Ramanujan's sum at a generic safe point against the product side.
    q, b, c, z = 0.4, 0.5, 0.15, 0.8
    lhs = eval_psi(SeriesSpec([b], [c], q, z))
    rhs = (
        qpoch(q, q, INFINITY)
        * qpoch(c / b, q, INFINITY)
        * qpoch(b * z, q, INFINITY)
        * qpoch(q / (b * z), q, INFINITY)
        / (
            qpoch(c, q, INFINITY)
            * qpoch(q / b, q, INFINITY)
            * qpoch(z, q, INFINITY)
            * qpoch(c / (b * z), q, INFINITY)
        )
    )
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_eval_psi_downward_tail_no_overflow():
    # regression: slow downward decay used to overflow q**(-k) factors
    val = eval_psi(SeriesSpec([1.4], [0.9], 0.12, 0.68))
    assert abs(val) < 1e3
    assert val == pytest.approx(val)  # finite, not nan


@pytest.mark.parametrize(
    "spec, pinned",
    [
        (SeriesSpec([], [0.35], 0.6, 0.8), 0.004332483359193386),
        (SeriesSpec([-1.3], [0.45], 0.83, 0.7), 531.7639212611562),
    ],
)
def test_eval_psi_pinned_values(spec, pinned):
    # a 0psi1 and a 1psi1, pinned to 17 digits: the walk may move them
    # only by rounding, within 1e-15 of the sum of |t_k|
    value, mass = psi_walk(spec)
    assert eval_psi(spec) == value
    assert abs(value - pinned) <= 1e-15 * mass
    assert mass >= abs(value)


def test_phi_walk_reports_sum_of_term_moduli():
    # a terminating 2phi1 with alternating terms: the walk stops at k = n,
    # and its sum |t_k| is that of the exact terms t_0 = 1, ..., t_n
    q, n, b, c, z = 0.6, 6, 0.4, 0.7, -1.3
    spec = SeriesSpec([q ** float(-n), b], [c], q, z)
    value, mass = phi_walk(spec)
    assert eval_phi(spec) == value
    qf = Fraction(q)
    term, terms = Fraction(1), [Fraction(1)]
    for k in range(n):
        qk = qf**k
        term *= (1 - Fraction(spec.upper[0].real) * qk) * (1 - Fraction(b) * qk) * Fraction(z)
        term /= (1 - Fraction(c) * qk) * (1 - qf ** (k + 1))
        terms.append(term)
    assert value.real == pytest.approx(float(sum(terms)), rel=1e-12)
    assert mass == pytest.approx(float(sum(abs(t) for t in terms)), rel=1e-13)
    assert phi_walk(SeriesSpec([0.3], [0.5], 0.5, 0.0)) == (1, 1)


def test_conditioning_scope_records_the_worst_walk():
    def kappa(walk, spec):
        value, mass = walk(spec)
        return mass / abs(value)

    calm = SeriesSpec([0.3, 0.4], [0.5], 0.5, 0.5)  # every term positive
    q, n = 0.6, 6
    loud = SeriesSpec([q ** float(-n), 0.4], [0.7], q, 1.3)  # alternating
    bilateral = SeriesSpec([0.6], [0.2], 0.5, -0.7)
    k_calm, k_loud = kappa(phi_walk, calm), kappa(phi_walk, loud)
    k_bilateral = kappa(psi_walk, bilateral)
    assert k_calm == pytest.approx(1.0)
    assert k_loud > k_bilateral > 1.0
    with qseries._conditioning_scope() as outer:
        eval_phi(calm)
        assert outer.worst == k_calm
        with qseries._conditioning_scope() as inner:
            eval_psi(bilateral)
            eval_phi(loud)
            eval_phi(calm)
        assert inner.worst == k_loud
        # the outer scope sees the walks of the nested one
        assert outer.worst == k_loud
    # outside a scope a walk records nothing
    eval_phi(loud)
    assert qseries._SCOPE.get() is None
    with qseries._conditioning_scope() as fresh:
        eval_psi(bilateral)
    assert fresh.worst == k_bilateral
    assert outer.worst == inner.worst == k_loud


def test_eval_psi_annulus_domain_check():
    # 1psi1 converges for |c/b| < |z| < 1
    with pytest.raises((DomainError, ConvergenceError)):
        eval_psi(SeriesSpec([0.5], [0.3], 0.5, 1.4))


@pytest.mark.parametrize("a", [0.5, 0.25])
def test_eval_psi_upper_parameter_q_power_is_a_pole(a):
    # (a;q)_k for k < 0 is 1 / (aq^k;q)_{-k}, infinite when a = q or q^2:
    # the sum has a pole there (at a = 0.5000001 it is -8.8e5), not the
    # value of its k >= 0 half
    with pytest.raises(DomainError, match="zero denominator"):
        eval_psi(SeriesSpec([a], [0.1], 0.5, 0.6))


def test_eval_psi_more_upper_than_lower_parameters_diverges():
    # with r > s the terms grow like q^{-(r-s) k^2 / 2} for every z
    for z in (2.0, 0.3, 1e-3):
        with pytest.raises(DomainError, match="r > s"):
            eval_psi(SeriesSpec([0.5, 0.6], [0.3], 0.5, z))


def _psi_draw(rng, shape):
    """(upper, lower, q, z) of one psi series of the named shape, drawn
    inside its convergence annulus and off its poles: the upper
    parameters are negative or off the real line."""
    q = rng.uniform(0.1, 0.9)
    turn = cmath.exp(1j * rng.uniform(-3, 3))

    def upper():
        if rng.random() < 0.5:
            return rng.uniform(-2, -0.3)
        return complex(rng.uniform(-1.5, 1.5), rng.uniform(0.1, 1))

    if shape == "1psi1":
        a, z = upper(), rng.uniform(0.2, 0.95) * turn
        return [a], [a * z * rng.uniform(0.1, 0.95)], q, z
    if shape == "0psi1":
        c = rng.uniform(-0.9, 0.9)
        return [], [c], q, abs(c) * rng.uniform(1.05, 4) * turn
    if shape == "triple product":
        return [], [0], q, rng.uniform(0.05, 5) * turn
    if shape == "2psi2":
        a1, a2, z = upper(), upper(), rng.uniform(0.2, 0.95) * turn
        b1 = rng.uniform(0.1, 0.9)
        return [a1, a2], [b1, a1 * a2 * z / b1 * rng.uniform(0.1, 0.95)], q, z
    return [upper()], [rng.uniform(-0.9, 0.9), 0], q, rng.uniform(0.05, 3) * turn


@pytest.mark.parametrize("shape", ["1psi1", "0psi1", "triple product", "2psi2", "1psi2"])
def test_psi_walk_matches_the_50_digit_oracle(shape):
    # both halves are phi_sum walks, the k < 0 one reflected into a series
    # in q^j: it must agree with the plain bilateral sum at 50 digits
    rng = random.Random(shape)
    for _ in range(3):
        upper, lower, q, z = _psi_draw(rng, shape)
        value, mass = psi_walk(SeriesSpec(upper, lower, q, z))
        ref, ref_mass = psi_oracle(upper, lower, q, z)
        assert abs(value - ref) <= 1e-13 * mass
        assert mass == pytest.approx(ref_mass, rel=1e-12)


def test_confluence_limit_check_decreasing():
    # 2phi1(a, b; c; q, z/b) -> 1phi1(a; c; q, z) as b grows
    rep = confluence_limit_check(
        SeriesSpec([0.3, 0.0], [0.5], 0.5, 0.4), 1, [10.0, 100.0, 1000.0]
    )
    assert isinstance(rep, ConvergenceReport)
    errs = rep.errors
    assert errs[-1] < errs[0]
    assert errs[-1] < 1e-2


def test_non_finite_series_input_rejected_at_once():
    nan, inf = float("nan"), float("inf")
    for upper, lower, z in (([nan], [0.5], 0.3), ([0.2], [inf], 0.3), ([0.2], [0.5], nan)):
        with pytest.raises(DomainError, match="finite"):
            SeriesSpec(upper, lower, 0.5, z)
    with pytest.raises(DomainError, match="finite"):
        eval_phi(SeriesSpec([0.2, complex(0.1, nan)], [0.5], 0.5, 0.3))


# The walk over nodes against phi_walk at each node.


def _little_qjacobi_specs(rng):
    """2phi1(q^{-n}, q^{n+1}ab; qa; q, qx) on the lattice x = q^k, n <= 20."""
    q, a, b = rng.uniform(0.1, 0.95), rng.uniform(0.05, 0.95), rng.uniform(-0.9, 0.9)
    n = rng.randrange(21)
    upper = [q ** float(-n), q ** float(n + 1) * a * b]
    return lambda x: SeriesSpec(upper, [q * a], q, q * x), q ** np.arange(40.0)


def _q_hahn_specs(rng):
    """q-Hahn at the points q^{-x}, x = 0..N, n <= N: nodes x < n stop at x."""
    q, a, b = rng.uniform(0.1, 0.9), rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
    N = rng.randrange(1, 31)
    n = rng.randrange(N + 1)
    upper = lambda x: [q ** float(-n), a * b * q ** float(n + 1), x]
    return lambda x: SeriesSpec(upper(x), [a * q, q ** float(-N)], q, q), q ** -np.arange(N + 1.0)


def _q_krawtchouk_specs(rng):
    """q-Krawtchouk at the points q^{-x}, x = 0..N, n <= N."""
    q, b, N = rng.uniform(0.1, 0.9), rng.uniform(0.2, 2.0), rng.randrange(1, 31)
    n = rng.randrange(N + 1)
    upper = lambda x: [q ** float(-n), -q ** float(n) / b, x]
    return lambda x: SeriesSpec(upper(x), [0, q ** float(-N)], q, q), q ** -np.arange(N + 1.0)


def _q_racah_specs(rng):
    """q-Racah 4phi3 with gamma q = q^{-N}: two upper parameters vary with x."""
    q, alpha, beta, delta = rng.uniform(0.1, 0.9), *(rng.uniform(0.05, 0.95) for _ in range(3))
    N = rng.randrange(1, 16)
    n, gamma = rng.randrange(N + 1), q ** float(-N - 1)

    def spec(t):  # t = q^{-x}, so q^{x+1} gamma delta = q gamma delta / t
        upper = [q ** float(-n), q ** float(n + 1) * alpha * beta, t, q * gamma * delta / t]
        return SeriesSpec(upper, [alpha * q, beta * delta * q, gamma * q], q, q)

    return spec, q ** -np.arange(N + 1.0)


@pytest.mark.parametrize(
    "draw", [_little_qjacobi_specs, _q_hahn_specs, _q_krawtchouk_specs, _q_racah_specs]
)
def test_walk_over_nodes_matches_the_point_walk_at_each_node(draw):
    # every entry is real, so both walks run in float64: the same bits
    rng = random.Random(draw.__name__)
    for _ in range(40):
        spec, nodes = draw(rng)
        value, mass = phi_walk(spec(nodes))
        assert value.dtype == float
        for i, t in enumerate(nodes.tolist()):
            want, want_mass = phi_walk(spec(t))
            assert value[i] == want
            assert mass[i] == want_mass


def test_phi_term_overflow_raises_out_of_range():
    # a tail walk whose terms overflow at once, rather than after its
    # whole budget of terms, and a terminating one that returned inf
    for spec in (
        SeriesSpec([1e200, 1e200], [0.5], 0.5, 0.9),
        SeriesSpec([0.5**-30, 1e200], [0.5], 0.5, 1e150),
        SeriesSpec([complex(1e200, 1e200)], [], 0.5, 0.9),
    ):
        with pytest.raises(OutOfRangeError, match="outside the double range"):
            eval_phi(spec)
    # the walk over nodes keeps its inf, which names the node that overflowed
    value = eval_phi(SeriesSpec([0.5**-30, 1e200], [0.5], 0.5, np.array([1e150, 1e-250])))
    assert np.isinf(value[0]) and np.isfinite(value[1])


def test_walk_over_nodes_raises_on_a_zero_denominator_it_reaches():
    # lower q^{-2} vanishes at k = 2: the nodes q^{-x}, x <= 2, stop first
    q = 0.5
    spec = lambda x: SeriesSpec([q**-4.0, x], [q**-2.0], q, 0.3)
    nodes = q ** -np.arange(3.0)
    value, _ = phi_walk(spec(nodes))
    assert np.allclose(value, [eval_phi(spec(t)) for t in nodes.tolist()], rtol=1e-14)
    for t in (q**-3.0, q**-4.0):
        with pytest.raises(DomainError, match="zero denominator"):
            eval_phi(spec(t))
    with pytest.raises(DomainError, match="zero denominator"):
        phi_walk(spec(q ** -np.arange(5.0)))
    with pytest.raises(DomainError, match="terminate"):
        phi_walk(SeriesSpec([0.3], [0.5], q, np.array([0.1, 0.2])))

    # the bilateral walk, classify and the reversal take one point
    nodes = np.array([0.6, 0.7])
    for spec in (
        SeriesSpec([0.5], [0.3], q, nodes),
        SeriesSpec([q**-3.0, nodes], [0.3], q, 0.5),
    ):
        for at_a_point in (eval_psi, psi_walk, classify, reverse_terminating):
            with pytest.raises(DomainError, match="phi_walk only"):
                at_a_point(spec)


def test_eval_psi_outside_the_double_range_raises():
    # by Ramanujan's 1psi1 the value has log|value| = 712.4, above the
    # double range; the sum of the two halves overflowed to inf+0j
    spec = SeriesSpec(
        [-0.9653802055250816], [-0.12446747756788903], 0.9974198368530456, 0.16327719156927462
    )
    with pytest.raises(OutOfRangeError, match="bilateral series"):
        eval_psi(spec)
