"""Tests for q-shifted factorials and q-binomial coefficients.

Oracle: direct product evaluation and mpmath.qp for the infinite case.
"""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspecial import INFINITY, TruncationPolicy, qbinomial, qpoch, qpoch_list
from qspecial.errors import DomainError
from qspecial.qcore import check_q, qpoch_base_inverted, shifted_factorial


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


def test_shifted_factorial_classical():
    # (a)_k = a(a+1)...(a+k-1)
    assert shifted_factorial(3.0, 4) == pytest.approx(3 * 4 * 5 * 6, rel=1e-14)
    assert shifted_factorial(0.5, 0) == 1.0


def test_check_q_rejects_bad_base():
    for bad in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(DomainError):
            check_q(bad)


def test_truncation_policy_defaults():
    pol = TruncationPolicy()
    assert pol.tail_epsilon == 1e-16
    assert pol.max_factors == 10000
    assert pol.max_terms == 100000


def test_truncation_policy_rejects_bad_fields():
    for kwargs in (
        {"max_terms": 0},
        {"max_factors": 0},
        {"tail_epsilon": math.inf},
        {"tail_epsilon": math.nan},
        {"tail_epsilon": 0.0},
    ):
        with pytest.raises(DomainError):
            TruncationPolicy(**kwargs)
