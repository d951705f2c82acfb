"""Jackson q-derivatives and q-integrals.

The backward q-derivative is (f(x) - f(qx)) / ((1-q)x); the forward one
is (f(x/q) - f(x)) / ((1-q)x).  The q-integral from 0 to a is the
geometric-mesh sum a(1-q) sum_{k>=0} f(a q^k) q^k for any f; a weight
with a rational ratio w(qx)/w(x) is stepped by recurrence.lattice_gram
instead, which walks the lattices of int_b^a = int_0^a - int_0^b (or of
the two half-lines of int_0^inf) in one walk, and the tests hold the two
together.  Every infinite sum here ends by the tail rule of
qcore.tail_sum.

Orientation note: qintegral_ab(f, a, b, q) is defined as
int_0^a - int_0^b, which is the NEGATIVE of the usual orientation.
The integration-by-parts residual below uses the usual orientation
(int_0^c - int_0^{-d}) internally, which is the one that makes the
boundary-term bookkeeping close.
"""

from qspecial.errors import DomainError
from qspecial.qcore import check_q, tail_sum


def qderiv_backward(f, x, q):
    """Backward q-derivative (f(x) - f(qx)) / ((1-q)x)."""
    q = check_q(q)
    if x == 0:
        raise DomainError("q-derivative undefined at x = 0")
    return (f(x) - f(q * x)) / ((1.0 - q) * x)


def qderiv_forward(f, x, q):
    """Forward q-derivative (f(x/q) - f(x)) / ((1-q)x)."""
    q = check_q(q)
    if x == 0:
        raise DomainError("q-derivative undefined at x = 0")
    return (f(x / q) - f(x)) / ((1.0 - q) * x)


def _jackson_terms(f, a, w, step):
    """The terms f(a w) w of a Jackson sum, with w running w, w step, ..."""
    while True:
        yield f(a * w) * w
        w *= step


def qintegral_0a(f, a, q):
    """Jackson integral a(1-q) sum_{k>=0} f(a q^k) q^k.

    Valid for negative a as well.  The sum ends by qcore.tail_sum.
    """
    q = check_q(q)
    if a == 0:
        return 0.0 + 0.0j
    terms = _jackson_terms(f, a, 1.0, q)
    total = tail_sum(terms, "q-integral tail not reached within max_terms")[0]
    return a * (1.0 - q) * total


def qintegral_ab(f, a, b, q):
    """Two-endpoint q-integral with the convention int_a^b := int_0^a - int_0^b.

    Note this is the negative of the usual orientation; see module docstring.
    """
    return qintegral_0a(f, a, q) - qintegral_0a(f, b, q)


def qintegral_0inf(f, q, a=1.0):
    """Bilateral q-integral a(1-q) sum_{k in Z} f(a q^k) q^k.

    The result is invariant under a -> a q^n.  Each tail ends by
    qcore.tail_sum on its own.
    """
    q = check_q(q)
    if a == 0:
        raise DomainError("scale a must be nonzero")
    message = "bilateral q-integral tail not reached"
    # k >= 0 runs toward zero, k < 0 runs toward infinity
    down = tail_sum(_jackson_terms(f, a, 1.0, q), message)[0]
    up = tail_sum(_jackson_terms(f, a, 1.0 / q, 1.0 / q), message)[0]
    return a * (1.0 - q) * (down + up)


def qintegration_by_parts_residual(f, g, c, d, q):
    """Residual of q-integration by parts on [-d, c], c, d >= 0.

    Returns int (D_q^- f) g - [f(c)g(c/q) - f(-d)g(-d/q) - int f (D_q^+ g)]
    with both integrals in the usual orientation int_0^c - int_0^{-d}.
    Approximately zero for continuous f, g.
    """
    q = check_q(q)
    if c < 0 or d < 0:
        raise DomainError("c and d must be nonnegative")

    def natural(h):
        return qintegral_0a(h, c, q) - qintegral_0a(h, -d, q)

    lhs = natural(lambda x: qderiv_backward(f, x, q) * g(x))
    boundary = f(c) * g(c / q) - f(-d) * g(-d / q)
    rhs = boundary - natural(lambda x: f(x) * qderiv_forward(g, x, q))
    return lhs - rhs
