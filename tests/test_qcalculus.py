"""Tests for Jackson q-derivatives and q-integrals.

Oracle: exact evaluation on monomials, where every operation has a
closed form, plus the q -> 1 comparison with classical calculus.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspecial import qderiv_backward, qintegral_0a, qintegral_0inf, qintegral_ab
from qspecial.qcalculus import qderiv_forward, qintegration_by_parts_residual


def qnumber(n, q):
    return (1.0 - q**n) / (1.0 - q)


@given(
    n=st.integers(1, 8), q=st.floats(0.1, 0.9), x=st.floats(0.2, 2.0)
)
@settings(max_examples=50, deadline=None)
def test_qderiv_backward_monomial(n, q, x):
    # D_q^- x^n = [n]_q x^{n-1} with the backward mesh x, qx
    got = qderiv_backward(lambda t: t**n, x, q)
    want = qnumber(n, q) * x ** (n - 1)
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_qderiv_forward_monomial():
    # forward mesh x, x/q scales the q-number by q^{-n}
    q, x, n = 0.5, 0.8, 3
    got = qderiv_forward(lambda t: t**n, x, q)
    want = qnumber(n, q) * q ** (-n) * x ** (n - 1)
    assert got == pytest.approx(want, rel=1e-12)


def test_qintegral_0a_monomial():
    # int_0^a x^n d_q x = a^{n+1} (1-q)/(1-q^{n+1}) = a^{n+1}/[n+1]_q
    a, q, n = 1.3, 0.6, 2
    got = qintegral_0a(lambda t: t**n, a, q)
    want = a ** (n + 1) / qnumber(n + 1, q)
    assert complex(got).real == pytest.approx(want, rel=1e-13)


def test_qintegral_0a_negative_endpoint():
    a, q = -0.9, 0.7
    got = qintegral_0a(lambda t: t**2, a, q)
    want = a**3 / qnumber(3, q)
    assert complex(got).real == pytest.approx(want, rel=1e-13)


def test_qintegral_0a_approaches_riemann_integral():
    # q up to 1 recovers int_0^1 x^2 dx = 1/3
    got = qintegral_0a(lambda t: t**2, 1.0, 0.999)
    assert complex(got).real == pytest.approx(1.0 / 3.0, rel=2e-3)


def test_qintegral_ab_orientation():
    # convention: int_a^b = int_0^a - int_0^b
    q = 0.5
    f = lambda t: t
    lhs = qintegral_ab(f, 1.0, 2.0, q)
    rhs = qintegral_0a(f, 1.0, q) - qintegral_0a(f, 2.0, q)
    assert lhs == pytest.approx(rhs, rel=1e-14)


def test_qintegral_fundamental_theorem():
    # int_0^a D_q^- F = F(a) - F(0) for polynomial F
    a, q = 0.8, 0.55
    F = lambda t: t**3 + 2 * t
    got = qintegral_0a(lambda t: qderiv_backward(F, t, q), a, q)
    assert complex(got).real == pytest.approx(F(a) - F(0), rel=1e-10)


def test_qintegral_0inf_scale_invariance():
    # result is invariant under a -> a q^n
    q = 0.5
    f = lambda t: 1.0 / ((1 + t) * (1 + q * t))
    v1 = qintegral_0inf(f, q, a=1.0)
    v2 = qintegral_0inf(f, q, a=q**3)
    assert v1 == pytest.approx(v2, rel=1e-12)


@pytest.mark.parametrize("q", [0.3, 0.7, 0.93])
@pytest.mark.parametrize("a", [1.0, 0.37, -2.2])
def test_qintegral_0inf_one_step_shift(q, a):
    # a and a q give the same lattice; each tail ends on its own
    f = lambda t: t / (1 + t**4) + 1j * t**2 / (1 + t**6)
    v1 = qintegral_0inf(f, q, a)
    v2 = qintegral_0inf(f, q, a * q)
    assert abs(v1 - v2) <= 1e-14 * abs(v1)


def test_qintegration_by_parts_residual_small():
    q = 0.6
    f = lambda t: t**2
    g = lambda t: 1.0 + t
    res = qintegration_by_parts_residual(f, g, 1.0, 0.7, q)
    assert abs(res) <= 1e-12
