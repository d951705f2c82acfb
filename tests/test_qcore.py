"""Tests for q-shifted factorials and q-binomial coefficients.

Oracle: direct product evaluation and mpmath.qp for the infinite case.
"""

import ast
import cmath
import importlib
import itertools
import math
import pkgutil
import random
import sys

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qspecial
from qspecial import INFINITY, kernels, qbinomial, qpoch, qpoch_list
from qspecial.errors import ConvergenceError, DomainError, OutOfRangeError
from qspecial.qcore import (
    MAX_TERMS,
    QUIET_TERMS,
    TAIL_EPSILON,
    _qpoch_prefix,
    check_q,
    log_qpoch_inf,
    qpoch_base_inverted,
    qpoch_inf_ratio,
    shifted_factorial,
    tail_sum,
)
from qspecial.qfunctions import gamma_q

from mp_oracle import EPS, log_distance, log_qfactorials, log_qpoch_oracle, qbinomial_oracle


def product_oracle(a, q, k):
    out = 1.0
    for j in range(k):
        out *= 1.0 - a * q**j
    return out


def test_qpoch_empty_product():
    assert qpoch(0.3, 0.5, 0) == 1.0


def test_qpoch_finite_matches_direct_product():
    for a, q, k in [(0.3, 0.5, 1), (0.7, 0.9, 5), (-1.2, 0.4, 8), (2.5, 0.6, 12)]:
        assert qpoch(a, q, k) == pytest.approx(product_oracle(a, q, k), rel=1e-14)


def test_qpoch_negative_index():
    # (a;q)_{-k} = 1 / (a q^{-k}; q)_k
    for a, q, k in [(0.3, 0.5, 2), (1.7, 0.8, 4)]:
        expected = 1.0 / product_oracle(a * q**-k, q, k)
        assert qpoch(a, q, -k) == pytest.approx(expected, rel=1e-13)


def test_qpoch_infinite_matches_mpmath():
    mpmath.mp.dps = 30
    for a, q in [(0.3, 0.5), (0.95, 0.9), (-2.0, 0.7), (0.0, 0.5)]:
        expected = float(mpmath.qp(a, q))
        assert complex(qpoch(a, q, INFINITY)).real == pytest.approx(
            expected, rel=1e-13
        )


def test_qpoch_list_is_product_of_factors():
    vals = qpoch_list([0.2, 0.4, -0.3], 0.6, 5)
    single = qpoch(0.2, 0.6, 5) * qpoch(0.4, 0.6, 5) * qpoch(-0.3, 0.6, 5)
    assert vals == pytest.approx(single, rel=1e-14)


@given(
    a=st.floats(-2, 2, allow_nan=False),
    q=st.floats(0.05, 0.95),
    m=st.integers(0, 10),
    n=st.integers(0, 10),
)
@settings(max_examples=60, deadline=None)
def test_qpoch_splitting_property(a, q, m, n):
    # (a;q)_{m+n} = (a;q)_m (a q^m; q)_n
    lhs = qpoch(a, q, m + n)
    rhs = qpoch(a, q, m) * qpoch(a * q**m, q, n)
    assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs), abs(rhs))


def binomial_count_oracle(n, k, q_sym_order=None):
    return math.comb(n, k)


def test_qbinomial_reduces_to_binomial_near_q_1():
    for n in range(0, 8):
        for k in range(0, n + 1):
            assert qbinomial(n, k, 1 - 1e-9) == pytest.approx(
                math.comb(n, k), rel=1e-6
            )


def test_qbinomial_polynomial_values():
    # [4 choose 2]_q = 1 + q + 2q^2 + q^3 + q^4, evaluated at q = 0.5
    q = 0.5
    expected = 1 + q + 2 * q**2 + q**3 + q**4
    assert qbinomial(4, 2, q) == pytest.approx(expected, rel=1e-14)


@given(n=st.integers(0, 12), k=st.integers(0, 12), q=st.floats(0.1, 0.9))
@settings(max_examples=60, deadline=None)
def test_qbinomial_symmetry(n, k, q):
    if k > n:
        return
    assert qbinomial(n, k, q) == pytest.approx(qbinomial(n, n - k, q), rel=1e-11)


def test_qpoch_base_inverted_identity():
    # (a; q^{-1})_k = (1/a; q)_k (-a)^k q^{-k(k-1)/2}
    a, q, k = 0.7, 0.6, 5
    direct = 1.0
    for j in range(k):
        direct *= 1.0 - a * q ** float(-j)
    assert qpoch_base_inverted(a, q, k) == pytest.approx(direct, rel=1e-13)


def test_qbinomial_matches_oracle_near_q_1():
    # (q;q)_n underflows from n of about 700 at q = 0.999, so [n k]_q is no
    # quotient of three products there; each ratio of the one running
    # product errs by a few ulps
    for q in (0.99, 0.995, 0.998, 0.999):
        logs = log_qfactorials(q, 3000)
        cases = {(2825, 1), (350, 175)}
        for n in range(0, 3000, 23):
            cases |= {(n, k) for k in (0, 1, 2, n // 7, n // 3, n // 2, n) if k <= n}
        for n, k in sorted(cases):
            log_value, value = qbinomial_oracle(logs, n, k)
            if log_value > math.log(sys.float_info.max):
                with pytest.raises(OutOfRangeError):
                    qbinomial(n, k, q)
            else:
                got = qbinomial(n, k, q)
                assert abs(got - value) <= 4 * (min(k, n - k) + 1) * EPS * value, (n, k, q)
    assert qbinomial(2825, 1, 0.999) == pytest.approx(940.7751133231495, rel=1e-13)


def test_qpoch_negative_index_outside_the_double_range():
    # every factor 1 - 3 q^-j is above 1: 1 / their product underflows
    with pytest.raises(OutOfRangeError):
        qpoch(3.0, 0.5, -2000)
    # thousands of factors within 1e-6 of 0, none of them 0: the product
    # underflows and its reciprocal overflows
    with pytest.raises(OutOfRangeError):
        qpoch(1 - 1e-6, 1 - 1e-10, -20000)
    # 1 - a q^-1 = 0 is a pole however many factors follow it
    for k in (-3, -2000):
        with pytest.raises(DomainError):
            qpoch(0.5, 0.5, k)


def test_qpoch_finite_index_outside_the_double_range():
    # a real a takes the float product, which overflows to -inf or inf; a
    # complex one gets NaN parts: both raise, whichever loop ran
    for a, q, k in ((1e300, 0.9, 10), (1e200, 0.99, 3), (complex(1e200, 1e200), 0.5, 3)):
        with pytest.raises(OutOfRangeError):
            qpoch(a, q, k)
    # a vanishing factor 1 - 4 q^2 stays a value, whatever follows it
    assert qpoch(4.0, 0.5, 5) == qpoch(4.0, 0.5, 2000) == 0


def test_qpoch_base_inverted_outside_the_double_range():
    # (0.3; 2)_200 grows as 2^(200^2 / 2); its prefactor alone overflows
    with pytest.raises(OutOfRangeError):
        qpoch_base_inverted(0.3, 0.5, 200)
    # (1/a; 0.999)_10000 underflows with no zero factor (to a subnormal at
    # a = 1.5, to exactly 0 at a = 1.01), while log|(a; 1/0.999)_10000| is
    # tens of thousands
    for a in (1.5, 1.01):
        with pytest.raises(OutOfRangeError):
            qpoch_base_inverted(a, 0.999, 10000)
    # (1e300; 0.99)_100 overflows, but every factor 1 - 1e-300 0.99^-j is
    # 1 to the last bit: the direct product gives the value
    assert qpoch_base_inverted(1e-300, 0.99, 100) == 1
    # (0.5; 2)_k has the factor 1 - 0.5 * 2 = 0 for every k >= 2
    assert qpoch_base_inverted(0.5, 0.5, 200) == 0
    assert qpoch_base_inverted(0.5, 0.5, 5) == 0


def test_shifted_factorial_classical():
    # (a)_k = a(a+1)...(a+k-1)
    assert shifted_factorial(3.0, 4) == pytest.approx(3 * 4 * 5 * 6, rel=1e-14)
    assert shifted_factorial(0.5, 0) == 1.0
    # (1.22)_281 = Gamma(282.22) / Gamma(1.22), about 1e572
    with pytest.raises(OutOfRangeError):
        shifted_factorial(1.22, 281)


def test_check_q_rejects_bad_base():
    for bad in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(DomainError):
            check_q(bad)


def test_tail_rule_constants():
    assert TAIL_EPSILON == 1e-16
    assert MAX_TERMS == 100_000
    assert QUIET_TERMS == 5


def test_no_function_takes_a_truncation_policy():
    # the tail rule has fixed constants: no def or lambda of the package
    # takes a policy, and the package exports none
    for info in pkgutil.walk_packages(qspecial.__path__, "qspecial."):
        module = importlib.import_module(info.name)
        if not module.__file__.endswith(".py"):
            continue
        with open(module.__file__) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs
                assert "pol" not in [p.arg for p in params], (info.name, node.lineno)
    assert "TruncationPolicy" not in qspecial.__all__
    assert "DEFAULT_POLICY" not in qspecial.__all__


# ---------------------------------------------------------------------------
# (a;q)_oo for every 0 < q < 1: the peeled log series against a 50-digit
# oracle, and against the kernel product as the second path

# 64 EPS per unit of size: the series path stays within 4, the kernel
# product over up to a few thousand factors (compiled backend) within 40
SIZE_TOL = 64 * EPS

argument = st.one_of(
    st.floats(-10, 10),
    st.builds(
        complex,
        st.floats(-7, 7),
        st.floats(-7, 7),
    ),
)
base = st.one_of(st.floats(0.01, 0.9999), st.floats(0.99, 0.9999))


@given(a=argument, q=base)
@settings(max_examples=40, deadline=None)
def test_log_qpoch_inf_matches_oracle(a, q):
    ref, size = log_qpoch_oracle(a, q)
    value = log_qpoch_inf(a, q)
    if ref.real == -math.inf:
        assert value.real == -math.inf
        return
    assert log_distance(value, ref) <= SIZE_TOL * (1 + size)


@given(a=argument, q=base)
@settings(max_examples=40, deadline=None)
# about 3300 factors: a product that long rounds beyond the bound
@example(a=-1.192092896e-07, q=0.9921875)
# above half the largest double, where a / 1/2 itself overflows
@example(a=1.2e308, q=0.5)
def test_qpoch_infinite_matches_oracle_or_raises_range(a, q):
    ref, size = log_qpoch_oracle(a, q)
    if ref.real == -math.inf:
        assert qpoch(a, q, INFINITY) == 0
        return
    log_abs = float(mpmath.re(ref))
    if not -700 <= log_abs <= 700:
        if log_abs < -710 or log_abs > 710:
            with pytest.raises(OutOfRangeError, match="log\\|value\\|"):
                qpoch(a, q, INFINITY)
        return
    value = qpoch(a, q, INFINITY)
    with mpmath.workdps(50):
        want = mpmath.exp(ref)
        assert float(abs(value - want) / abs(want)) <= SIZE_TOL * (1 + size)


@given(z=st.floats(-3.5, 8), q=base)
@settings(max_examples=30, deadline=None)
def test_gamma_q_matches_oracle(z, q):
    if z < 0.5 and abs(z - round(z)) < 0.01:
        return  # next to a pole, where the value's conditioning blows up
    with mpmath.workdps(50):
        qz = mpmath.mpf(q) ** z
        top, size_top = log_qpoch_oracle(q, q)
        bottom, size_bottom = log_qpoch_oracle(qz, q)
        ref = top - bottom + (1 - z) * mpmath.log(1 - mpmath.mpf(q))
        want = mpmath.exp(ref)
    # q^z is rounded in double: a relative perturbation of |z log q| EPS
    size = size_top + size_bottom * (1 + abs(z * math.log(q)))
    value = gamma_q(z, q)
    assert float(abs(value - want) / abs(want)) <= SIZE_TOL * (1 + size)


@given(a=argument, q=st.floats(0.01, 0.99))
@settings(max_examples=60, deadline=None)
@example(a=9.0, q=1 / 3)
def test_log_series_matches_kernel_product(a, q):
    # the two paths of (a;q)_oo; the product runs through the first factor
    # with |a q^j| below 1e-17 (1 - q), and two more
    n, mag = 2, abs(a)
    while mag >= 1e-17 * (1 - q):
        n, mag = n + 1, mag * q
    value = kernels.qpoch_finite(complex(a), q, n)
    series = cmath.exp(log_qpoch_inf(a, q))
    # a factor 1 - a q^j near 0 amplifies the rounding of a q^j by this much
    cond = sum(abs(a * q**j / (1 - a * q**j)) for j in range(200) if a * q**j != 1)
    assert abs(series - value) <= max(1e-13, 64 * EPS * cond) * abs(value)


def test_qpoch_infinite_near_one_default_policy():
    # 37/(1-q) factors would exceed the 10 000-factor budget here
    for a, q in ((0.5, 0.999), (-0.3, 0.999), (0.05 + 0.1j, 0.9995), (0.02, 0.9999)):
        ref, size = log_qpoch_oracle(a, q)
        with mpmath.workdps(50):
            want = mpmath.exp(ref)
            assert float(abs(qpoch(a, q, INFINITY) - want) / abs(want)) <= 1e-12


@pytest.mark.parametrize("q", [1 - 1e-4, 1 - 1e-5, 1 - 1e-6])
def test_log_qpoch_inf_matches_dilogarithm_near_one(q):
    # log (x;q)_oo = -Li2(x)/t + log(1 - x)/2 - t x / (12 (1 - x)) + O(t^3),
    # t = -log q (Euler-Maclaurin); the O(t^3) rest is below EPS |log| here
    for x in (0.5, -0.7, 0.9, 0.1, -0.95, 0.3 + 0.4j):
        with mpmath.workdps(40):
            t, X = -mpmath.log(mpmath.mpf(q)), mpmath.mpmathify(x)
            want = -mpmath.polylog(2, X) / t + mpmath.log(1 - X) / 2 - t * X / (12 * (1 - X))
            want = complex(want)
        assert abs(log_qpoch_inf(x, q) - want) <= 16 * EPS * abs(want)


def test_qpoch_out_of_range_names_log():
    # (0.5; 0.9999)_oo = exp(-5822.46): no double holds it, and it is not 0
    with pytest.raises(OutOfRangeError, match=r"log\|value\| = -5822\.46"):
        qpoch(0.5, 0.9999, INFINITY)
    assert log_qpoch_inf(0.5, 0.9999).real == pytest.approx(-5822.460721459, rel=1e-12)


def test_log_qpoch_inf_zero_factor():
    assert log_qpoch_inf(1.0, 0.7).real == -math.inf
    assert log_qpoch_inf(4.0, 0.5).real == -math.inf
    assert qpoch(4.0, 0.5, INFINITY) == 0


def test_qpoch_inf_ratio_pole_and_zero():
    with pytest.raises(DomainError, match="pole"):
        qpoch_inf_ratio([0.3], [2.0], 0.5)
    assert qpoch_inf_ratio([2.0], [0.3], 0.5) == 0


def test_qpoch_inf_ratio_pole_at_a_lower_q_power():
    # (8;1/2)_oo has the factor 1 - 8 (1/2)^3 = 0: a pole, though the
    # kernel product's numerator and denominator are both in range
    with pytest.raises(DomainError, match="pole"):
        qpoch_inf_ratio([0.5], [8.0], 0.5)


def test_qpoch_inf_ratio_zero_over_zero_is_a_pole():
    # 2 = (1/2)^-1 above and 8 = (1/2)^-3 below: 0/0 has no value
    with pytest.raises(DomainError, match="pole"):
        qpoch_inf_ratio([0.5, 2.0], [0.25, 8.0], 0.5, math.log1p(-0.5))


def test_qpoch_inf_vanishes_at_a_rounded_q_power():
    # 9.0 is (1/3)^-2 within the rule's rounding; the factor 1 - 9 q^2 it
    # forms is rounding error alone, so the product is 0 on either path
    assert qpoch(9.0, 1 / 3, INFINITY) == 0
    assert log_qpoch_inf(9.0, 1 / 3).real == -math.inf
    assert qpoch_inf_ratio([9.0], [0.5], 1 / 3) == 0


@pytest.mark.parametrize("a, q, n", [
    (0.3**-5.0, 0.3, 5),
    (0.3**-3.0, 0.3, 3),
    (101771146.55773683, 0.39775785655519447, 20),
])
def test_finite_qpoch_vanishes_above_a_rounded_q_power(a, q, n):
    # a is q^-n under the rule, so (a;q)_k = 0 for k > n, as (a;q)_oo is;
    # the kernel product rounds its factor 1 - a q^n to a residue, times
    # the large factors before it (-4.7e-9, -9.4e-14 and 1.2e68)
    assert qpoch(a, q, INFINITY) == 0
    for k in (n + 1, n + 4):
        assert qpoch(a, q, k) == 0
    prefix = _qpoch_prefix(a, q, n + 4)
    assert prefix[: n + 1] == [qpoch(a, q, k) for k in range(n + 1)]
    assert prefix[n + 1 :] == [0, 0, 0, 0]


def test_qpoch_rejects_non_finite_input():
    for a in (math.nan, math.inf, -math.inf, complex(0.1, math.nan)):
        for k in (INFINITY, 3, -2):
            with pytest.raises(DomainError, match="finite"):
                qpoch(a, 0.5, k)
    with pytest.raises(DomainError):
        qpoch(0.5, math.nan, INFINITY)
    with pytest.raises(DomainError, match="finite"):
        log_qpoch_inf(math.nan, 0.5)


def test_tail_sum_finite_iterator_is_exact():
    total, mass, scale = tail_sum(iter([1.0, -2.5, 0.25, 1e-30]), "unused")
    assert (total, mass, scale) == (-1.25, 3.75, 2.5)
    assert tail_sum(iter([]), "unused") == (0, 0.0, 0.0)


def test_tail_sum_stops_after_quiet_terms():
    # 2^-k drops below 1e-16 of the first term at k = 54; four more follow
    seen = []
    terms = (seen.append(k) or 0.5**k for k in itertools.count())
    total, mass, scale = tail_sum(terms, "unused")
    assert len(seen) == 54 + QUIET_TERMS
    assert total == pytest.approx(2.0, rel=1e-15) and mass == total.real
    assert scale == 1.0
    # a seeded scale makes every term of a small series quiet at once
    total, _, scale = tail_sum(itertools.repeat(1e-20), "unused", 1.0)
    assert total == pytest.approx(QUIET_TERMS * 1e-20) and scale == 1.0


def test_tail_sum_max_terms_raises():
    with pytest.raises(ConvergenceError, match="no tail here"):
        tail_sum(itertools.repeat(1.0), "no tail here", max_terms=10)
    # a finite iterator shorter than the budget is summed
    assert tail_sum(iter([1.0] * 9), "unused", max_terms=10)[0] == 9.0


def test_qpoch_prefix_is_each_qpoch():
    # one running product in the kernel's factor order gives every
    # (a;q)_k of qpoch bit for bit, real a on floats and complex a in complex
    rng = random.Random(28)
    for i in range(400):
        q = rng.uniform(0.05, 0.99)
        a = rng.uniform(-4.0, 4.0) * 10.0 ** rng.choice([-3, 0, 0, 1])
        if i % 2:
            a = complex(a, rng.uniform(-4.0, 4.0))
        n = rng.randrange(0, 80)
        got = _qpoch_prefix(a, q, n)
        assert len(got) == n + 1
        for k, v in enumerate(got):
            assert type(v) is complex and v == qpoch(a, q, k), (a, q, k)
    assert _qpoch_prefix(0.3, 0.5, 0) == [1.0]
    assert _qpoch_prefix(2.0, 0.5, 3)[2:] == [0.0, 0.0]  # the factor 1 - 2q^1


@pytest.mark.parametrize("a", [1e300, complex(1e300, 1e300), -3e200])
def test_qpoch_prefix_raises_where_qpoch_first_does(a):
    q = 0.5
    first = next(k for k in range(10) if not cmath.isfinite(kernels.qpoch_finite(a, q, k)))
    with pytest.raises(OutOfRangeError) as want:
        qpoch(a, q, first)
    assert _qpoch_prefix(a, q, first - 1) == [qpoch(a, q, k) for k in range(first)]
    for n in (first, first + 5):
        with pytest.raises(OutOfRangeError) as got:
            _qpoch_prefix(a, q, n)
        assert str(got.value) == str(want.value)
    with pytest.raises(DomainError):
        _qpoch_prefix(0.3, 1.0, 3)
    with pytest.raises(DomainError):
        _qpoch_prefix(math.nan, 0.5, 3)
