"""The q-hypergeometric q-difference equation.

Residual operators (both the D_q form and the equivalent three-point
form), the five named solutions u1..u5, and the three-term connection
identity relating u1, u2, u3.
"""

import cmath
import math

from qspecial.qcalculus import qderiv_backward
from qspecial.qcore import check_q, qpoch_inf_ratio
from qspecial.qseries import SeriesSpec, eval_phi


class QHGEParams:
    """Exponent parameters a, b, c (entering as q^a, q^b, q^c) and base q."""

    __slots__ = ("a", "b", "c", "q")

    def __init__(self, a, b, c, q):
        self.a, self.b, self.c = a, b, c
        self.q = check_q(q)

    def qp(self, e):
        """q raised to the (complex) exponent e."""
        return cmath.exp(complex(e) * math.log(self.q))


def qhge_residual(u, p, z):
    """Three-point residual
    (q^c - q^{a+b} z) u(qz) + (-q^c - q + (q^a + q^b) z) u(z) + (q - z) u(z/q).

    Approximately zero when u solves the q-hypergeometric equation.
    """
    q = p.q
    qa, qb, qc = p.qp(p.a), p.qp(p.b), p.qp(p.c)
    return (
        (qc - qa * qb * z) * u(q * z)
        + (-qc - q + (qa + qb) * z) * u(z)
        + (q - z) * u(z / q)
    )


def qhge_residual_dq(u, p, z):
    """Residual of the equation in Jackson-derivative form:

    z (q^c - q^{a+b+1} z) D_q^2 u
      + [(1-q^c)/(1-q) - (q^b (1-q^a)/(1-q) + q^a (1-q^{b+1})/(1-q)) z] D_q u
      - (1-q^a)(1-q^b)/(1-q)^2 u.
    """
    q = p.q
    qa, qb, qc = p.qp(p.a), p.qp(p.b), p.qp(p.c)
    d1 = qderiv_backward(u, z, q)
    d2 = qderiv_backward(lambda x: qderiv_backward(u, x, q), z, q)
    one = 1.0 - q
    return (
        z * (qc - qa * qb * q * z) * d2
        + ((1.0 - qc) / one - (qb * (1.0 - qa) / one + qa * (1.0 - qb * q) / one) * z)
        * d1
        - (1.0 - qa) * (1.0 - qb) / one**2 * u(z)
    )


def solution_u1(p, z):
    """u1(z) = 2phi1(q^a, q^b; q^c; q, z), |z| < 1."""
    return eval_phi(SeriesSpec([p.qp(p.a), p.qp(p.b)], [p.qp(p.c)], p.q, z))


def solution_u2(p, z):
    """u2(z) = z^{1-c} 2phi1(q^{1+a-c}, q^{1+b-c}; q^{2-c}; q, z), |z| < 1."""
    body = eval_phi(
        SeriesSpec(
            [p.qp(1 + p.a - p.c), p.qp(1 + p.b - p.c)], [p.qp(2 - p.c)], p.q, z
        )
    )
    return complex(z) ** (1.0 - complex(p.c)) * body


def solution_u3(p, z):
    """u3(z) = z^{-a} 2phi1(q^a, q^{a-c+1}; q^{a-b+1}; q, q^{-a-b+c+1}/z)."""
    arg = p.qp(-p.a - p.b + p.c + 1) / z
    body = eval_phi(
        SeriesSpec([p.qp(p.a), p.qp(p.a - p.c + 1)], [p.qp(p.a - p.b + 1)], p.q, arg)
    )
    return complex(z) ** (-complex(p.a)) * body


def solution_u4(p, z):
    """u4(z) = 3phi2(q^a, q^b, q^{a+b-c} z; q^{a+b-c+1}, 0; q, q)."""
    e = p.a + p.b - p.c
    return eval_phi(
        SeriesSpec([p.qp(p.a), p.qp(p.b), p.qp(e) * z], [p.qp(e + 1), 0], p.q, p.q)
    )


def solution_u5(p, z):
    """u5(z) = z^{-b} 3phi2(q^b, q^{b-c+1}, q/z; q^{a+b-c+1}, 0; q, q)."""
    body = eval_phi(
        SeriesSpec(
            [p.qp(p.b), p.qp(p.b - p.c + 1), p.q / z],
            [p.qp(p.a + p.b - p.c + 1), 0],
            p.q,
            p.q,
        )
    )
    return complex(z) ** (-complex(p.b)) * body


def _theta_ratio(p, alpha, beta, z):
    """(q^alpha z, q^{1-alpha}/z;q)_oo z^{alpha-beta} / (q^beta z, q^{1-beta}/z;q)_oo,
    as (upper, lower, log of z^{alpha-beta}) for qpoch_inf_ratio.

    Invariant under z -> qz; building block of the connection coefficients.
    """
    z = complex(z)
    return (
        [p.qp(alpha) * z, p.qp(1 - alpha) / z],
        [p.qp(beta) * z, p.qp(1 - beta) / z],
        complex(alpha - beta) * cmath.log(z),
    )


def connection_coefficients(p, z):
    """Coefficients (C2, C3) of the three-term connection identity
    u1(z) + C2(z) u2(z) = C3(z) u3(z).  Each is one exp of a sum of logs
    of infinite products, so no partial product underflows."""
    q = p.q
    a, b, c = p.a, p.b, p.c
    qe = p.qp
    up, down, log_z = _theta_ratio(p, b - 1, b - c, z)
    c2 = qpoch_inf_ratio(
        [qe(a), qe(1 - c), qe(c - b)] + up,
        [qe(c - 1), qe(a - c + 1), qe(1 - b)] + down,
        q,
        log_z,
    )
    up, down, log_z = _theta_ratio(p, a + b - c, b - c, z)
    c3 = qpoch_inf_ratio(
        [qe(1 - c), qe(a - b + 1)] + up,
        [qe(1 - b), qe(a - c + 1)] + down,
        q,
        log_z,
    )
    return c2, c3


def connection_residual(p, z0):
    """Residual u1(z0) + C2(z0) u2(z0) - C3(z0) u3(z0); approximately zero."""
    c2, c3 = connection_coefficients(p, z0)
    return (
        solution_u1(p, z0)
        + c2 * solution_u2(p, z0)
        - c3 * solution_u3(p, z0)
    )
