"""Tests for q-exponentials, q-gamma/beta, theta, q-Bessel, partitions.

Oracles: infinite-product definitions via mpmath.qp, classical limits,
exhaustive partition enumeration, and integer power series inversion.
"""

import cmath
import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspecial import (
    E_q,
    INFINITY,
    beta_q,
    e_q,
    gamma_q,
    hahn_exton_bessel,
    jackson_bessel_1,
    jackson_bessel_2,
    partition_count,
    qpoch,
    theta4,
)
from qspecial.errors import DomainError, OutOfRangeError
from qspecial.qfunctions import gamma_q_reciprocal, theta4_series

from mp_oracle import gamma_q_oracle, log_qpoch_oracle


def test_e_q_product_form():
    # e_q(z) = 1 / (z; q)_oo for |z| < 1
    mpmath.mp.dps = 30
    z, q = 0.4, 0.6
    assert complex(e_q(z, q)).real == pytest.approx(
        float(1 / mpmath.qp(z, q)), rel=1e-13
    )


def test_E_q_product_form():
    mpmath.mp.dps = 30
    z, q = 1.7, 0.6
    assert complex(E_q(z, q)).real == pytest.approx(
        float(mpmath.qp(-z, q)), rel=1e-13
    )


def test_exponentials_are_reciprocal():
    # e_q(z) E_q(-z) = 1
    z, q = 0.35, 0.7
    assert complex(e_q(z, q) * E_q(-z, q)).real == pytest.approx(1.0, rel=1e-12)


def test_gamma_q_at_integer():
    assert complex(gamma_q(3, 0.5)).real == pytest.approx(1.5, rel=1e-13)
    # Gamma_q(n+1) = [n]_q!
    q = 0.7
    qfact = 1.0
    for k in range(1, 5):
        qfact *= (1 - q**k) / (1 - q)
    assert complex(gamma_q(5, q)).real == pytest.approx(qfact, rel=1e-12)


def test_gamma_q_functional_equation():
    q, z = 0.55, 1.37
    lhs = gamma_q(z + 1, q)
    rhs = (1 - q**z) / (1 - q) * gamma_q(z, q)
    assert complex(lhs).real == pytest.approx(complex(rhs).real, rel=1e-12)


def test_gamma_q_classical_limit():
    # the default factor budget supports q up to about 0.99; the error
    # scales like (1 - q), so check decrease along 0.9, 0.99
    for z in (0.5, 2.3, 4.1):
        e1 = abs(complex(gamma_q(z, 0.9)).real - math.gamma(z)) / math.gamma(z)
        e2 = abs(complex(gamma_q(z, 0.99)).real - math.gamma(z)) / math.gamma(z)
        assert e2 < e1
        assert e2 < 0.05


def test_gamma_q_reciprocal_consistent():
    q, z = 0.6, 2.2
    assert complex(gamma_q(z, q) * gamma_q_reciprocal(z, q)).real == pytest.approx(
        1.0, rel=1e-12
    )


def test_beta_q_gamma_ratio():
    q, a, b = 0.65, 1.4, 2.3
    lhs = beta_q(a, b, q)
    rhs = gamma_q(a, q) * gamma_q(b, q) / gamma_q(a + b, q)
    assert complex(lhs).real == pytest.approx(complex(rhs).real, rel=1e-11)


def test_theta4_product_equals_series():
    for q in (0.35, 0.9, 0.99):
        for x in (0.0, 0.13, 0.5, 0.77):
            prod = theta4(x, q)
            ser = theta4_series(x, q)
            assert abs(prod - ser) <= 1e-12 * max(1.0, abs(ser))


def test_theta4_matches_mpmath_jtheta():
    # theta_4(x;q) with nome q corresponds to jtheta(4, pi x, q)
    mpmath.mp.dps = 25
    q = 0.4
    for x in (0.0, 0.2, 0.45):
        want = float(mpmath.jtheta(4, mpmath.pi * x, q))
        assert complex(theta4(x, q)).real == pytest.approx(want, rel=1e-12)


def test_jackson_bessel_relation():
    # J^(2)_nu(z;q) = (-z^2/4; q)_oo J^(1)_nu(z;q)
    nu, z, q = 0.5, 1.2, 0.55
    lhs = jackson_bessel_2(nu, z, q)
    rhs = qpoch(-z * z / 4.0, q, INFINITY) * jackson_bessel_1(nu, z, q)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_jackson_bessel_1_domain():
    with pytest.raises(DomainError):
        jackson_bessel_1(0.0, 2.5, 0.5)


def test_bessel_small_argument_leading_order():
    # all three families behave like (z/2)^nu (or z^nu) times a prefactor
    nu, q = 1.0, 0.6
    pref = qpoch(q ** (nu + 1), q, INFINITY) / qpoch(q, q, INFINITY)
    z = 1e-6
    assert abs(jackson_bessel_1(nu, z, q) - pref * (z / 2) ** nu) <= 1e-14
    assert abs(hahn_exton_bessel(nu, z, q) - pref * z**nu) <= 1e-14


@pytest.mark.parametrize(
    "f, args",
    [
        # the values -5.3e315 and about 2.4e308 in modulus, past the double range
        (jackson_bessel_2, (3.4686266780376136, 99271.47664586779, 0.8506938275405417)),
        (jackson_bessel_2, (2.0324919961917316, -30786.70996427583, 0.8770985076636091)),
        (hahn_exton_bessel, (2.345089302520086, 3296756.1260893405, 0.5254397115954851)),
        # (z/2)^nu in range times a prefactor past it, and (z/2)^nu itself overflowing
        (jackson_bessel_1, (-40.5, 1e-7, 0.5)),
        (jackson_bessel_1, (-40.5, 1e-10, 0.5)),
        # an integral nu < 0: Python inverts (z/2)^40, which underflowed to 0
        (jackson_bessel_1, (-40.0, 1e-10, 0.5)),
    ],
)
def test_q_bessel_values_above_the_double_range_raise_naming_the_function(f, args):
    with pytest.raises(OutOfRangeError, match=f"^{f.__name__}: value outside the double range"):
        f(*args)


@pytest.mark.parametrize(
    "f, nu",
    [(jackson_bessel_1, -1.5), (hahn_exton_bessel, -2.5), (jackson_bessel_2, -3.0)],
)
def test_q_bessel_at_zero_with_negative_nu_is_a_domain_error(f, nu):
    with pytest.raises(DomainError, match=f"^{f.__name__}: z = 0 "):
        f(nu, 0.0, 0.5)


def enumerate_partitions(n):
    """Count partitions by explicit recursive enumeration (slow, exact)."""

    def count(remaining, largest):
        if remaining == 0:
            return 1
        return sum(
            count(remaining - part, part)
            for part in range(min(remaining, largest), 0, -1)
        )

    return count(n, n)


def test_partition_small_values_by_enumeration():
    assert partition_count(5) == 7
    assert partition_count(10) == 42
    for n in range(0, 16):
        assert partition_count(n) == enumerate_partitions(n)


def test_partition_matches_euler_product_coefficients():
    # invert prod_k (1 - x^k) as an integer power series up to x^40
    order = 41
    euler = [0] * order
    euler[0] = 1
    for k in range(1, order):
        new = euler[:]
        for i in range(order - k):
            new[i + k] -= euler[i]
        euler = new
    inv = [0] * order
    inv[0] = 1
    for m in range(1, order):
        acc = 0
        for j in range(1, m + 1):
            acc += euler[j] * inv[m - j]
        inv[m] = -acc
    for n in range(order):
        assert partition_count(n) == inv[n]


def test_partition_rejects_out_of_range():
    with pytest.raises(DomainError):
        partition_count(-1)
    with pytest.raises(DomainError):
        partition_count(10_001)


# ---------------------------------------------------------------------------
# q -> 1: every product by the log series, quotients as one exp of logs


def _exp_oracle(log_value):
    with mpmath.workdps(50):
        return mpmath.exp(log_value)


def _rel(value, want):
    with mpmath.workdps(50):
        return float(abs(value - want) / abs(want))


@pytest.mark.parametrize("q", [0.999, 0.9999])
def test_gamma_q_near_one_default_policy(q):
    for z in (0.5, 1.7, 3.2):
        with mpmath.workdps(50):
            top, _ = log_qpoch_oracle(q, q)
            bottom, _ = log_qpoch_oracle(mpmath.mpf(q) ** z, q)
            want = mpmath.exp(top - bottom + (1 - z) * mpmath.log(1 - mpmath.mpf(q)))
        assert _rel(gamma_q(z, q), want) <= 1e-11


@pytest.mark.parametrize("q", [0.999, 0.9999])
def test_E_q_near_one_default_policy(q):
    # the exp_from_Eq limit path: E_q((1-q) z) -> e^z
    for z in (0.8, -1.3, 2.5):
        ref, _ = log_qpoch_oracle(-(1 - q) * z, q)
        assert _rel(E_q((1 - q) * z, q), _exp_oracle(ref)) <= 1e-13


def _beta_oracle(a, b, q):
    with mpmath.workdps(50):
        qm = mpmath.mpf(q)
        logs = [log_qpoch_oracle(v, q)[0] for v in (qm, qm ** (a + b), qm**a, qm**b)]
        return mpmath.exp(mpmath.log(1 - qm) + logs[0] + logs[1] - logs[2] - logs[3])


def test_beta_q_near_one_no_false_pole():
    # (q^a, q^b;q)_oo underflows to 0 in double here; the quotient does not
    for a, b, q in ((2.987, 0.343, 0.9958), (0.5, 1.5, 0.999)):
        assert _rel(beta_q(a, b, q), _beta_oracle(a, b, q)) <= 1e-11


def test_theta4_near_one_tiny_value():
    # 9.7e-267: the partial products underflow to 0, the sum of logs does not
    q, x = 0.999, 0.25
    q2 = q * q  # rounded to double, as theta4 does
    with mpmath.workdps(50):
        w = mpmath.expjpi(2 * mpmath.mpf(x))
        want = mpmath.exp(sum(log_qpoch_oracle(v, q2)[0] for v in (q2, q * w, q / w)))
    value = theta4(x, q)
    assert _rel(value, want) <= 1e-11
    assert abs(value) == pytest.approx(9.7222182450e-267, rel=1e-9)


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 0.999])
def test_gamma_beta_poles_raise(q):
    # q^z is not an exact power of q in double; the pole must not be missed
    for z in range(0, -11, -1):
        with pytest.raises(DomainError, match="pole"):
            gamma_q(z, q)
        with pytest.raises(DomainError, match="pole"):
            beta_q(z, 1.5, q)
        with pytest.raises(DomainError, match="pole"):
            beta_q(0.7, z, q)
        assert gamma_q_reciprocal(z, q) == 0


def test_q_power_above_the_double_range_raises_out_of_range():
    # q^z = exp(z log q) overflows; mpmath gives Gamma_q = -1.37e-1869924
    # and B_q = 6.68e+39069, both outside the double range
    with pytest.raises(OutOfRangeError, match="Gamma_q"):
        gamma_q(-3016.9359001245466, 0.3885)
    with pytest.raises(OutOfRangeError, match="B_q"):
        beta_q(-198.174, -272.987, 0.1896)


@pytest.mark.parametrize("b", [-0.5, 0.5])
def test_beta_q_where_q_power_overflows(b):
    # q^a and q^(a+b) lie above the double range, B_q does not: mpmath
    # gives -3.5646e154 at b = -0.5 and -4.3400e-155 at b = 0.5
    a, q = -751.3, 0.3885
    with mpmath.workdps(50):
        x, y, qm = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(q)
        want = mpmath.qgamma(x, qm) * mpmath.qgamma(y, qm) / mpmath.qgamma(x + y, qm)
    value = beta_q(a, b, q)
    assert value.imag == 0
    assert _rel(value, want) <= 1e-12


# z = -n +- d for the poles -n = 0..-10 and these distances d
NEAR_POLES = [-n + sign * d for n in range(11) for d in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3)
              for sign in (1, -1)]


@pytest.mark.parametrize("q, tol", [(0.1, 1e-13), (0.3, 1e-13), (0.5, 1e-13), (0.9, 1e-13),
                                    (0.98, 1e-13), (0.99, 2e-13)])
def test_gamma_q_next_to_its_poles(q, tol):
    # the factor 1 - q^(z+n) that vanishes at the pole keeps its digits;
    # a 1e-9 window used to raise inside and lose 7 digits just outside
    for z in NEAR_POLES:
        assert _rel(gamma_q(z, q), gamma_q_oracle(z, q)) <= tol, z


def _beta_near_pole_oracle(z, b, q, gamma_b):
    """B_q(z, b) = Gamma_q(z) Gamma_q(b) / Gamma_q(z + b), z + b exact;
    gamma_b = Gamma_q(b)."""
    with mpmath.workdps(60):
        total = mpmath.mpf(z) + mpmath.mpf(b)
        return mpmath.mpc(gamma_q_oracle(z, q)) * gamma_b / gamma_q_oracle(total, q)


def test_beta_q_next_to_a_pole():
    # 1.3e-6 off at the parent, just outside its pole window
    a, b, q = -2 + 1e-9, 1.5, 0.9
    want = _beta_near_pole_oracle(a, b, q, gamma_q_oracle(b, q))
    assert _rel(beta_q(a, b, q), want) <= 1e-13


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
def test_beta_q_with_one_argument_next_to_a_pole(q):
    # the argument next to a pole comes first at b = 1.5, second at b = 0.7
    gamma_b = {b: gamma_q_oracle(b, q) for b in (1.5, 0.7)}
    for i, z in enumerate(NEAR_POLES):
        b = (1.5, 0.7)[i // 2 % 2]
        value = beta_q(z, b, q) if b == 1.5 else beta_q(b, z, q)
        assert _rel(value, _beta_near_pole_oracle(z, b, q, gamma_b[b])) <= 1e-13, (z, b)


def test_beta_q_poles_are_decided_before_a_plus_b_overflows():
    # a + b overflows to -inf, but a (an integer, as is every double of
    # this size) is a pole; a with b = 0.5 was a pole already
    q = 0.5
    with pytest.raises(DomainError, match=r"B_q: pole at \(-1e\+308\+0j\), \(-1e\+308\+0j\)"):
        beta_q(-1e308, -1e308, q)
    with pytest.raises(DomainError, match=r"B_q: pole at \(-1e\+308\+0j\), \(0\.5\+0j\), q=0\.5$"):
        beta_q(-1e308, 0.5, q)


def test_gamma_q_off_the_real_axis_next_to_a_pole():
    # the Im z window of 1e-12 refused this point; it is no pole
    z, q = -2 + 1e-13j, 0.9
    assert _rel(gamma_q(z, q), gamma_q_oracle(z, q)) <= 1e-13
    assert gamma_q_reciprocal(z, q) != 0


def test_gamma_q_reciprocal_is_zero_at_exact_poles_only():
    z, q = -2 + 1e-12, 0.9
    assert gamma_q_reciprocal(z, q) == pytest.approx(1 / gamma_q_oracle(z, q), rel=1e-13)
    assert gamma_q_reciprocal(-2.0, q) == 0


# z = -n + k 2^-e, 0 < |k| < 2^20 <= 2^e, lies within 1 of the pole -n and
# off every pole; it is exact, and so is z + 1, for n <= 10 and e <= 48
@given(n=st.integers(0, 10), k=st.integers(1 - 2**20, 2**20 - 1).filter(bool),
       e=st.integers(20, 48), q=st.floats(0.05, 0.95))
@settings(max_examples=60, deadline=None)
def test_gamma_q_functional_equation_next_to_the_poles(n, k, e, q):
    z = -n + k * 2.0**-e
    lhs = gamma_q(z + 1, q)
    rhs = -math.expm1(z * math.log(q)) / (1 - q) * gamma_q(z, q)
    assert abs(lhs - rhs) <= 1e-13 * abs(lhs)


def test_true_poles_keep_domain_error():
    with pytest.raises(DomainError):
        beta_q(0, 1.5, 0.9)
    with pytest.raises(DomainError):
        gamma_q(-2, 0.5)
    with pytest.raises(DomainError):
        e_q(1.0, 0.999)
