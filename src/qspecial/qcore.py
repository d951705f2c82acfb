"""Base-q conventions: q validation, truncation policy, q-shifted factorials.

The q-shifted factorial (a;q)_k is the building block for everything else:

    (a;q)_k = prod_{j=0}^{k-1} (1 - a q^j)            k >= 0
    (a;q)_k = 1 / prod_{j=1}^{|k|} (1 - a q^{-j})      k < 0
    (a;q)_oo = prod_{j>=0} (1 - a q^j)                 truncated product

Throughout the package the base satisfies 0 < q < 1.
"""

import math
from dataclasses import dataclass

from qspecial import kernels
from qspecial.errors import ConvergenceError, DomainError

INFINITY = "oo"


@dataclass(frozen=True)
class TruncationPolicy:
    """Budget and tail tolerance for truncated infinite products/series."""

    tail_epsilon: float = 1e-16
    max_factors: int = 10_000
    max_terms: int = 100_000

    def __post_init__(self):
        if not 0 < self.tail_epsilon < math.inf:
            raise DomainError("tail_epsilon must be positive and finite")
        if self.max_factors < 1:
            raise DomainError("max_factors must be >= 1")
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1")


DEFAULT_POLICY = TruncationPolicy()


def check_q(q):
    """Validate the base; returns q as float. Requires 0 < q < 1."""
    q = float(q)
    if not 0.0 < q < 1.0:
        raise DomainError(f"base q must satisfy 0 < q < 1, got {q}")
    return q


def qpoch(a, q, k, pol=DEFAULT_POLICY):
    """q-shifted factorial (a;q)_k.

    k may be any integer or the sentinel INFINITY.  Negative k uses the
    closed reciprocal product; INFINITY truncates once the tail factors
    are below pol.tail_epsilon.
    """
    q = check_q(q)
    if k == INFINITY:
        value, status = kernels.qpoch_infinite(
            complex(a), q, pol.tail_epsilon, pol.max_factors
        )
        if status:
            raise ConvergenceError(
                f"(a;q)_oo tail bound not reached within {pol.max_factors} factors"
            )
        return value
    k = int(k)
    if k >= 0:
        return kernels.qpoch_finite(complex(a), q, k)
    value, status = kernels.qpoch_negative(complex(a), q, -k)
    if status:
        raise DomainError(f"(a;q)_{k} undefined: zero denominator factor, a={a}")
    return value


def qpoch_list(alist, q, k, pol=DEFAULT_POLICY):
    """Product of (a;q)_k over a list of parameters; empty list gives 1."""
    out = 1.0 + 0.0j
    for a in alist:
        out *= qpoch(a, q, k, pol)
    return out


def qbinomial(n, k, q):
    """q-binomial coefficient [n k]_q; 0 outside 0 <= k <= n."""
    q = check_q(q)
    if n < 0:
        raise DomainError("n must be nonnegative")
    if k < 0 or k > n:
        return 0.0
    num = kernels.qpoch_finite(q, q, n)
    den = kernels.qpoch_finite(q, q, k) * kernels.qpoch_finite(q, q, n - k)
    return (num / den).real


def qpoch_base_inverted(a, q, k):
    """(a;q^{-1})_k = prod_{j=0}^{k-1} (1 - a q^{-j}), via the closed rewrite
    (-1)^k a^k q^{-k(k-1)/2} (a^{-1};q)_k."""
    q = check_q(q)
    k = int(k)
    if k < 0:
        raise DomainError("k must be nonnegative")
    if k == 0:
        return 1.0 + 0.0j
    a = complex(a)
    if a == 0:
        raise DomainError("a must be nonzero for k > 0")
    sign = -1.0 if k % 2 else 1.0
    return sign * a**k * q ** (-k * (k - 1) / 2) * kernels.qpoch_finite(1.0 / a, q, k)


def shifted_factorial(a, k):
    """Classical Pochhammer symbol (a)_k = a(a+1)...(a+k-1)."""
    if k < 0:
        raise DomainError("k must be nonnegative")
    out = 1.0 + 0.0j if isinstance(a, complex) else 1.0
    for j in range(int(k)):
        out *= a + j
    return out
