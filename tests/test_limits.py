"""Tests for the classical-limit harness."""

import math

import pytest

from qspecial import LimitReport, list_paths, run_limit
from qspecial.errors import DomainError, UnknownPath
from qspecial.limits import _rel, classical_bessel_j, classical_eval, classical_gamma


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
