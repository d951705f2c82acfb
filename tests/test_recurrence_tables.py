"""Tests for the Askey-Wilson and big q-Jacobi recurrence tables.

Oracles: the per-degree builders the tables replaced, kept here as a
second path (leading coefficients, norm ratios and the value at the
normalization point, formed afresh for each degree), and the 50-digit
evaluation of the same per-degree definitions in mp_oracle.
"""

import cmath
import math
import random
import warnings

import numpy as np
import pytest

from qspecial import askey_wilson, qorthopoly
from qspecial.askey_wilson import (
    AWParams,
    aw_leading_coefficient,
    aw_recurrence_table,
)
from qspecial.qcore import qpoch, qpoch_list
from qspecial.qorthopoly import (
    BigQJacobiParams,
    big_qjacobi_norm_point_value,
    big_qjacobi_recurrence_table,
)

from mp_oracle import aw_recurrence_oracle, big_qjacobi_recurrence_oracle


def _aw_norm_ratio(n, p):
    """h_n / h_0 = (1-q^{n-1}abcd)(q,ab,ac,ad,bc,bd,cd;q)_n
                     / ((1-q^{2n-1}abcd)(abcd;q)_n)."""
    a, b, c, d = p.abcd
    q = p.q
    abcd = a * b * c * d
    pairs = [q, a * b, a * c, a * d, b * c, b * d, c * d]
    return (
        (1.0 - q ** float(n - 1) * abcd)
        * qpoch_list(pairs, q, n)
        / ((1.0 - q ** float(2 * n - 1) * abcd) * qpoch(abcd, q, n))
    )


def _aw_reference(n, p):
    """(A_n, B_n, C_n) of the Askey-Wilson recurrence per degree:
    A_n = 2 k_n/k_{n+1}, C_n = (2 k_{n-1}/k_n)(h_n/h_{n-1}), and B_n by
    substituting x = (a + 1/a)/2, where p_n = a^{-n}(ab,ac,ad;q)_n, for a
    permuted nonzero parameter (B_n = 0 when all four vanish)."""
    k = lambda m: aw_leading_coefficient(m, p)
    an = 2.0 * k(n) / k(n + 1)
    cn = 0.0
    if n > 0:
        cn = 2.0 * k(n - 1) / k(n) * _aw_norm_ratio(n, p) / _aw_norm_ratio(n - 1, p)
    a, b, c, d = sorted(p.abcd, key=lambda e: -abs(e))
    if a == 0:
        return an, 0.0, cn

    def v(m):
        return a ** float(-m) * qpoch_list([a * b, a * c, a * d], p.q, m)

    x0 = (a + 1.0 / a) / 2.0
    bn = 2.0 * x0 - an * v(n + 1) / v(n) - (cn * v(n - 1) / v(n) if n > 0 else 0.0)
    return an, bn, cn


def _big_qjacobi_reference(n, p):
    """(B_n, C_n) of the monic big q-Jacobi recurrence per degree: C_n in
    closed form, B_n from the monic values at the normalization point
    c/(qa); a = 0 by the reflection x -> -x, (a, b, c, d) -> (b, a, d, c),
    and a = b = 0 in closed form."""
    q, a, b, c, d = p.q, p.a, p.b, p.c, p.d
    if a == 0 and b == 0:
        return (c - d) * q**n, 0.0 if n == 0 else c * d * q ** (n - 1) * (1.0 - q**n)
    if a == 0:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            flipped = BigQJacobiParams(b, a, d, c, q)
        bn, cn = _big_qjacobi_reference(n, flipped)
        return -bn, cn
    qn = q ** float(n)
    cn = 0.0
    if n > 0:
        cn = (
            q ** (n - 1)
            * (1.0 - qn)
            * (1.0 - qn * a)
            * (1.0 - qn * b)
            * (1.0 - qn * a * b)
            * (d + qn * b * c)
            * (c + qn * a * d)
            / (
                (1.0 - q ** float(2 * n - 1) * a * b)
                * (1.0 - q ** float(2 * n) * a * b) ** 2
                * (1.0 - q ** float(2 * n + 1) * a * b)
            )
        )
    v = [big_qjacobi_norm_point_value(k, p) for k in (n - 1, n, n + 1)]
    bn = c / (q * a) - v[2] / v[1] - (cn * v[0] / v[1] if n > 0 else 0.0)
    return bn, cn


def _aw_draws(count, seed):
    """AWParams with real parameters, a conjugate pair, one parameter at
    1e-4 and the rest below 0.05, a = 0 and a = b = 0, in turn."""
    rng = random.Random(seed)
    draws = []
    for i in range(count):
        e = [rng.uniform(-0.9, 0.9) for _ in range(4)]
        if i % 5 == 1:
            re, im = rng.uniform(-0.6, 0.6), rng.uniform(0.05, 0.6)
            e[2], e[3] = complex(re, im), complex(re, -im)
        elif i % 5 == 2:
            e = [x / 18.0 for x in e]
            e[rng.randrange(4)] = 1e-4
        elif i % 5 == 3:
            e[0] = 0.0
        elif i % 5 == 4:
            e[0] = e[1] = 0.0
        draws.append(AWParams(*e, rng.uniform(0.1, 0.9)))
    return draws


def _big_qjacobi_draws(count, seed, small=("a", "b")):
    """BigQJacobiParams in the positive-weight regime: real a and b, a
    conjugate pair a = c alpha, b = d conj(alpha), one of small at 1e-4,
    a = 0 and a = b = 0, in turn.  |ab| < 0.81 keeps every denominator
    1 - ab q^m of C_n away from 0, where its digits go with the
    conditioning of the inputs on any path."""
    rng = random.Random(seed)
    draws = []
    for i in range(count):
        q, c, d = rng.uniform(0.1, 0.9), rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)
        a = rng.uniform(max(-0.9, -c / (d * q)), 0.9)
        b = rng.uniform(max(-0.9, -d / (c * q)), 0.9)
        if i % 5 == 1:
            alpha = cmath.rect(rng.uniform(0.05, 0.9), rng.uniform(0.1, 3.0)) / math.sqrt(c * d)
            a, b = c * alpha, d * alpha.conjugate()
        elif i % 5 == 2:
            if rng.choice(small) == "a":
                a = 1e-4
            else:
                b = 1e-4
        elif i % 5 == 3:
            a = 0.0
        elif i % 5 == 4:
            a = b = 0.0
        draws.append(BigQJacobiParams(a, b, c, d, q))
    return draws


def _scaled_error(got, want):
    """max |got - want| over max(1, max |want|)."""
    want = np.asarray(want, dtype=complex)
    return np.abs(np.asarray(got) - want).max() / max(1.0, np.abs(want).max())


def test_aw_table_matches_the_per_degree_builder():
    for p in _aw_draws(60, 1):
        rec = aw_recurrence_table(21, p)
        ref = np.array([_aw_reference(n, p) for n in range(21)], dtype=complex).T
        for got, want in zip((rec.a, rec.b, rec.c), ref):
            assert _scaled_error(got, want) <= 1e-12, p


def test_big_qjacobi_table_matches_the_per_degree_builder():
    # a small a is left to the 50-digit test: the builder's B_n cancels at
    # x0 = c/(qa) and loses about 1e-11 of its scale at a = 1e-4
    for p in _big_qjacobi_draws(60, 2, small=("b",)):
        rec = big_qjacobi_recurrence_table(21, p)
        ref = np.array([_big_qjacobi_reference(n, p) for n in range(21)], dtype=complex).T
        assert (rec.a == 1.0).all()
        for got, want in zip((rec.b, rec.c), ref):
            assert _scaled_error(got, want) <= 1e-12, p


def test_aw_table_matches_the_50_digit_definition():
    # B_n from the value at x0 = (a + 1/a)/2 cancels in double, the more so
    # the smaller the largest parameter; the closed form does not
    for p in _aw_draws(15, 3):
        rec = aw_recurrence_table(30, p)
        want = np.array(aw_recurrence_oracle(p.abcd, p.q, 30)).T
        for got, ref in zip((rec.a, rec.b, rec.c), want):
            assert _scaled_error(got, ref) <= 1e-14, p


def test_big_qjacobi_table_matches_the_50_digit_definition():
    # a = b = 1 (big q-Legendre) puts 0/0 in the general form of B_0
    legendre = BigQJacobiParams(1.0, 1.0, 1.2, 0.8, 0.5)
    for p in _big_qjacobi_draws(15, 4) + [legendre]:
        rec = big_qjacobi_recurrence_table(30, p)
        want = np.array(big_qjacobi_recurrence_oracle(p.a, p.b, p.c, p.d, p.q, 30)).T
        for got, ref in zip((rec.b, rec.c), want):
            assert _scaled_error(got, ref) <= 1e-14, p


@pytest.mark.parametrize(
    "build",
    [
        lambda: aw_recurrence_table(120, AWParams(0.6, 0.4, -0.3, 0.2, 0.55)),
        lambda: big_qjacobi_recurrence_table(120, BigQJacobiParams(0.95, 0.3, 0.855, 1.0, 0.9)),
    ],
)
def test_tables_make_no_q_pochhammer_calls(monkeypatch, build):
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    # every q-Pochhammer name each module imports
    for module, names in ((askey_wilson, ("qpoch", "qpoch_list")), (qorthopoly, ("qpoch",))):
        for name in names:
            monkeypatch.setattr(module, name, counting(getattr(module, name)))
    rec = build()
    assert len(rec.b) == 120 and np.isfinite(rec.b).all()
    assert calls == []
