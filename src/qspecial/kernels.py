"""Kernel backend selection.

Imports the compiled extension (hand-written C, ``_kernels.c``) when it
was built, otherwise falls back to the pure-Python twins.  Both expose the
same functions with identical semantics; ``BACKEND`` names the active one
("c" or "python").  The two products, qpoch_finite and qpoch_negative,
take a counted number of factors: a truncated (a;q)_oo is qpoch_finite
with the count that qcore sets.
"""

try:
    from qspecial._kernels import (  # type: ignore[attr-defined]
        BACKEND,
        phi_sum,
        qpoch_finite,
        qpoch_negative,
    )
except ImportError:
    from qspecial._kernels_py import (
        BACKEND,
        phi_sum,
        qpoch_finite,
        qpoch_negative,
    )

__all__ = ["BACKEND", "qpoch_finite", "qpoch_negative", "phi_sum"]
