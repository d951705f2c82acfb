"""qspecial: numerical q-special functions.

Building blocks (q-shifted factorials, Jackson calculus, basic and
bilateral hypergeometric series), named q-functions (q-exponentials,
q-gamma/beta, theta, q-Bessel), the q-Hahn tableau and Askey-Wilson
orthogonal polynomials, a machine-checked identity catalog, and a
classical-limit harness.  See the ``qspecial`` CLI for the command-line
front end.
"""

from qspecial.askey_wilson import (
    AWParams,
    aw_integral_closed,
    aw_integral_numeric,
    aw_norm,
    aw_poly,
    aw_poly_by_recurrence,
    aw_recurrence,
    continuous_q_hermite,
    q_ultraspherical,
)
from qspecial.identities import list_identities, verify, verify_all
from qspecial.kernels import BACKEND
from qspecial.limits import LimitReport, list_paths, run_limit
from qspecial.qcalculus import (
    qderiv_backward,
    qintegral_0a,
    qintegral_0inf,
    qintegral_ab,
)
from qspecial.qcore import (
    INFINITY,
    qbinomial,
    qpoch,
    qpoch_base_inverted,
    qpoch_list,
    shifted_factorial,
)
from qspecial.qfunctions import (
    E_q,
    beta_q,
    e_q,
    gamma_q,
    hahn_exton_bessel,
    jackson_bessel_1,
    jackson_bessel_2,
    partition_count,
    theta4,
)
from qspecial.qorthopoly import (
    BigQJacobiParams,
    FamilyParams,
    big_qjacobi,
    big_qjacobi_gram_matrix,
    big_qjacobi_monic,
    big_qjacobi_norm,
    family_eval,
    family_gram_matrix,
    little_qjacobi,
    little_qjacobi_gram_matrix,
    little_qjacobi_norm,
    q_racah,
)
from qspecial.qseries import ConvergenceClass, SeriesSpec, classify, eval_phi, eval_psi

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "INFINITY",
    "qpoch",
    "qpoch_list",
    "qbinomial",
    "qpoch_base_inverted",
    "shifted_factorial",
    "SeriesSpec",
    "ConvergenceClass",
    "classify",
    "eval_phi",
    "eval_psi",
    "qderiv_backward",
    "qintegral_0a",
    "qintegral_ab",
    "qintegral_0inf",
    "e_q",
    "E_q",
    "gamma_q",
    "beta_q",
    "theta4",
    "jackson_bessel_1",
    "jackson_bessel_2",
    "hahn_exton_bessel",
    "partition_count",
    "BigQJacobiParams",
    "big_qjacobi",
    "big_qjacobi_monic",
    "big_qjacobi_norm",
    "big_qjacobi_gram_matrix",
    "little_qjacobi",
    "little_qjacobi_gram_matrix",
    "little_qjacobi_norm",
    "FamilyParams",
    "family_eval",
    "family_gram_matrix",
    "AWParams",
    "aw_poly",
    "aw_poly_by_recurrence",
    "aw_recurrence",
    "aw_norm",
    "aw_integral_closed",
    "aw_integral_numeric",
    "continuous_q_hermite",
    "q_ultraspherical",
    "q_racah",
    "list_identities",
    "verify",
    "verify_all",
    "LimitReport",
    "list_paths",
    "run_limit",
    "__version__",
]
