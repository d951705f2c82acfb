"""Tests for the parameter records and reports: plain classes and named
tuples, whose constructors convert and validate as the families need."""

import dataclasses
import sys

import pytest

import qspecial
import qspecial.cli
import qspecial.qdiffeq
from qspecial import AWParams, BigQJacobiParams
from qspecial.errors import DomainError
from qspecial.identities import VerificationReport
from qspecial.limits import LimitReport
from qspecial.qdiffeq import QHGEParams


def test_no_class_of_the_package_is_a_dataclass():
    # a dataclass generates and compiles its methods at every import
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "qspecial"]
    assert qspecial.qdiffeq in modules and qspecial.cli in modules
    for module in modules:
        for name, value in vars(module).items():
            if isinstance(value, type):
                assert not dataclasses.is_dataclass(value), f"{module.__name__}.{name}"


def test_aw_params_store_complex_parameters_and_check_q():
    p = AWParams(0.5, 1, -0.25, 0.5j, 0.5)
    assert p.abcd == (0.5 + 0j, 1 + 0j, -0.25 + 0j, 0.5j)
    assert all(type(e) is complex for e in p.abcd)
    with pytest.raises(DomainError):
        AWParams(0.5, 0.4, -0.3, 0.2, 1.0)


@pytest.mark.parametrize("c, d", [(0.0, 1.0), (1.0, -2.0)])
def test_big_qjacobi_params_reject_nonpositive_c_and_d(c, d):
    with pytest.raises(DomainError, match="c and d must be positive"):
        BigQJacobiParams(0.4, 0.6, c, d, 0.5)


def test_qhge_params_check_q():
    with pytest.raises(DomainError):
        QHGEParams(0.37, 0.61, 1.48, 1.0)


def test_reports_do_not_share_their_lists():
    first, second = VerificationReport("a", 1, 0, 1e-10), VerificationReport("b", 1, 0, 1e-10)
    first.failures.append({})
    assert second.failures == [] and second.passed
    first, second = LimitReport("a"), LimitReport("b")
    first.parameters.append(0.5)
    first.errors.append(1.0)
    assert (second.parameters, second.errors) == ([], [])
