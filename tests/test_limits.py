"""Tests for the classical-limit harness."""

import math
import random

import mpmath
import pytest

from qspecial import LimitReport, limits, list_paths, run_limit
from qspecial.errors import DomainError, UnknownPath
from qspecial.limits import (
    _rel,
    classical_bessel_j,
    classical_eval,
    classical_gamma,
    hyp_terminating,
)


def test_at_least_fourteen_paths():
    paths = list_paths()
    assert len(paths) >= 14
    assert len(set(paths)) == len(paths)


def test_all_paths_pass():
    for name in list_paths():
        rep = run_limit(name)
        assert isinstance(rep, LimitReport)
        assert rep.passed, f"{name}: final_error={rep.final_error}"
        assert rep.final_error <= 1e-3
        assert rep.finally_decreasing


def test_report_fields():
    name = list_paths()[0]
    rep = run_limit(name, tolerance=1e-3)
    assert rep.name == name
    assert rep.tolerance == 1e-3
    assert len(rep.errors) >= 3
    assert rep.final_error == rep.errors[-1]


def test_unknown_path_raises():
    with pytest.raises(DomainError):
        run_limit("no_such_arrow")
    with pytest.raises(UnknownPath, match="unknown limit path 'no_such_arrow'"):
        run_limit("no_such_arrow")


def test_non_finite_step_error_is_inf():
    assert _rel(math.nan, 1.0) == math.inf
    assert _rel(math.inf, 1.0) == math.inf
    assert max(0.0, _rel(math.nan, 1.0)) == math.inf


def test_strict_tolerance_fails_honestly():
    name = list_paths()[0]
    rep = run_limit(name, tolerance=1e-300)
    assert not rep.passed


def test_classical_eval_against_scipy():
    from scipy.special import eval_jacobi, eval_laguerre, eval_hermite

    for n in (0, 3, 7):
        x = 0.42
        assert classical_eval("jacobi", n, x, alpha=0.5, beta=1.5) == pytest.approx(
            float(eval_jacobi(n, 0.5, 1.5, x)), rel=1e-12
        )
        assert classical_eval("laguerre", n, x, alpha=0.0) == pytest.approx(
            float(eval_laguerre(n, x)), rel=1e-12
        )
        assert classical_eval("hermite", n, x) == pytest.approx(
            float(eval_hermite(n, x)), rel=1e-12
        )


def test_classical_gamma_and_bessel():
    assert classical_gamma(4.0) == pytest.approx(6.0, rel=1e-12)
    from scipy.special import jv

    assert classical_bessel_j(0.5, 1.3) == pytest.approx(
        float(jv(0.5, 1.3)), rel=1e-10
    )


def test_product_limit_paths_under_default_policy():
    # q = 1 - 2^-j, j = 2..13: up to 37/(1-q) = 300 000 factors by the plain
    # product; the log series needs no budget.  The errors are those of the
    # q-analogues themselves, pinned to 3 digits.
    pinned = {
        "gamma_from_gamma_q": [0.161, 0.0815, 0.041, 0.0206, 0.0103, 0.00515,
                               0.00258, 0.00129, 0.000644, 0.000322, 0.000161, 8.06e-05],
        "exp_from_Eq": [0.291, 0.167, 0.0899, 0.0468, 0.0239, 0.0121,
                        0.00607, 0.00304, 0.00152, 0.000762, 0.000381, 0.000191],
    }
    for name, errors in pinned.items():
        rep = run_limit(name)
        assert rep.passed
        assert [float("%.3g" % e) for e in rep.errors] == errors


def _full_sum(uppers, lowers, z, n):
    """The terminating sum through k = n, every term summed: the reference
    for hyp_terminating, whose loop stops at its first zero term."""
    term = total = 1.0 + 0.0j
    zero_at = None
    for k in range(n):
        for u in uppers:
            term *= u + k
        for l in lowers:
            term /= l + k
        term *= z / (k + 1)
        total += term
        if term == 0 and zero_at is None:
            zero_at = k
    return total, zero_at


def test_terminating_sum_keeps_the_full_sums_bits_on_the_bessel_path():
    # the Jacobi 2F1 at t = x^2 / (4 m^2), m up to 4096: its terms underflow
    # to exactly 0 from k of about 90 on
    path = limits._PATHS["bessel_from_jacobi"]
    stopped = 0
    for m in path.steps:
        for (x,) in path.probes:
            want, zero_at = _full_sum([-m, m + 0.7 + 0.2 + 1.0], [0.7 + 1.0], x * x / (4.0 * m * m), m)
            assert repr(path.approximant(m, x)) == repr(want), (m, x)
            stopped += zero_at is not None
    assert stopped >= 8


def test_terminating_sum_keeps_the_full_sums_bits_on_random_draws():
    rng = random.Random(25)
    for i in range(400):
        n = rng.choice([rng.randrange(0, 12), rng.randrange(50, 700)])
        uppers = [-n] + [complex(rng.uniform(-3, 3), rng.choice([0.0, rng.uniform(-2, 2)]))
                         for _ in range(rng.randrange(0, 3))]
        lowers = [rng.uniform(0.2, 4.0) for _ in range(rng.randrange(0, 3))]
        # tiny z and long sums underflow; z = 0 makes every term past t_0 zero
        z = rng.choice([0.0, rng.uniform(-2, 2), rng.uniform(-1, 1) * 10.0 ** -rng.randrange(20, 200),
                        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 1e-30])
        want, _ = _full_sum(uppers, lowers, z, n)
        assert repr(hyp_terminating(uppers, lowers, z)) == repr(want), (i, uppers, lowers, z)


def test_terminating_sum_snaps_an_integer_only_within_rounding():
    # -2.0000000005 is 5e-10 from -2: no integer, so the sum runs to k = 5
    with mpmath.workdps(50):
        want = complex(mpmath.hyper([-5, mpmath.mpf(-2.0000000005)], [1.5], 30))
    got = hyp_terminating([-5, -2.0000000005], [1.5], 30.0)
    assert abs(got - want) <= 1e-12 * abs(want)
    # the width's edges: limits._INTEGER_ULPS ulps of |r| (of 1 at r = 0)
    for r in (0, -1, -8, -40):
        width = limits._INTEGER_ULPS * math.ulp(max(-r, 1))
        for sign in (1.0, -1.0):
            assert limits._is_nonpositive_int(r + sign * width) == r
            assert limits._is_nonpositive_int(complex(r, sign * width)) == r
            beyond = r + sign * (width + math.ulp(r + sign * width))
            assert limits._is_nonpositive_int(beyond) is None, (r, sign)
            assert limits._is_nonpositive_int(complex(r, sign * 2 * width)) is None
    assert limits._is_nonpositive_int(1) is None


def test_racah_accepts_each_lower_parameter_formed_as_a_sum():
    # alpha + 1, beta + delta + 1 or gamma + 1 equal to -N, the last two as
    # float sums that round off -N by a few ulps
    rng = random.Random(28)
    for _ in range(300):
        big_n = rng.randrange(0, 30)
        b, c, d = rng.uniform(0.01, 5.0), rng.uniform(0.01, 5.0), rng.uniform(0.01, 5.0)
        for par in (
            dict(alpha=-big_n - 1.0, beta=b, gamma=c, delta=d),
            dict(alpha=c, beta=b, gamma=d, delta=-big_n - 1.0 - b),
            dict(alpha=c, beta=b, gamma=-big_n - 1.0, delta=d),
        ):
            n, x = rng.randrange(0, big_n + 1), rng.randrange(0, big_n + 1)
            assert math.isfinite(abs(classical_eval("racah", n, x, **par))), par
    with pytest.raises(DomainError):
        classical_eval("racah", 1, 1, alpha=-2.0000000005, beta=0.3, gamma=0.2, delta=0.4)


def test_terminating_sum_past_a_lower_pole_still_raises():
    # every term past t_0 is 0 at z = 0, but the lower -2 divides by 0 at
    # k = 2 < n: the full loop raises there, and so does the short one
    with pytest.raises(ZeroDivisionError):
        _full_sum([-5], [-2.0], 0.0, 5)
    with pytest.raises(ZeroDivisionError):
        hyp_terminating([-5], [-2.0], 0.0)
    # a lower pole at or past n is never reached
    assert hyp_terminating([-3], [-3.0], 0.0) == _full_sum([-3], [-3.0], 0.0, 3)[0]


def test_run_limit_forms_each_target_once_per_probe(monkeypatch):
    for name in list_paths():
        path = limits._PATHS[name]
        calls = []

        def target(*probe, _target=path.target):
            calls.append(probe)
            return _target(*probe)

        monkeypatch.setitem(limits._PATHS, name, path._replace(target=target))
        rep = run_limit(name)
        assert sorted(calls) == sorted(path.probes), name
        assert len(rep.errors) == len(path.steps)
        monkeypatch.setitem(limits._PATHS, name, path)
        assert repr(run_limit(name)) == repr(rep)
