"""End-to-end acceptance checks for the library.

Each test exercises one headline guarantee: the identity catalog at
scale, the Askey-Wilson integral, the orthogonality Gram suites, dual
evaluation paths, shift-operator algebra, q-difference equations, the
classical-limit harness, the partition oracle, and the expected-failure
detection in the CLI.
"""

import cmath
import math
import random
import time

import pytest

from qspecial import (
    AWParams,
    BigQJacobiParams,
    FamilyParams,
    aw_integral_closed,
    aw_integral_numeric,
    aw_norm,
    aw_poly,
    aw_poly_by_recurrence,
    big_qjacobi_gram_matrix,
    big_qjacobi_monic,
    big_qjacobi_norm,
    family_eval,
    family_gram_matrix,
    INFINITY,
    list_paths,
    little_qjacobi,
    little_qjacobi_gram_matrix,
    little_qjacobi_norm,
    partition_count,
    q_ultraspherical,
    qpoch,
    run_limit,
    verify_all,
)
from qspecial.askey_wilson import (
    aw_gram_quadrature,
    aw_qdifference_residual,
    q_racah_gram_matrix,
)
from qspecial.cli import main
from qspecial.qdiffeq import (
    QHGEParams,
    connection_residual,
    qhge_residual,
    solution_u1,
    solution_u2,
    solution_u3,
    solution_u4,
    solution_u5,
)
from qspecial.qorthopoly import (
    big_qjacobi_eigenvalue,
    big_qjacobi_shift_down,
    big_qjacobi_shift_up,
    quadratic_transform_check,
    quadratic_transform_u,
    quadratic_transform_v,
)


# 1. identity catalog at 50 samples


def test_identity_suite_full_sweep():
    start = time.monotonic()
    reports = verify_all(samples=50, seed=1)
    elapsed = time.monotonic() - start
    assert len(reports) >= 35
    for rep in reports:
        assert rep.passed, f"{rep.id}: {rep.max_rel_error} > {rep.tolerance}"
    assert elapsed < 60.0


# 2. Askey-Wilson integral


def test_aw_integral_random_conjugate_closed():
    rng = random.Random(20260823)
    checked = 0
    while checked < 100:
        q = rng.uniform(0.15, 0.85)
        a = rng.uniform(-0.9, 0.9)
        b = rng.uniform(-0.9, 0.9)
        r = rng.uniform(0.05, 0.9)
        phi = rng.uniform(0.1, math.pi - 0.1)
        c = r * cmath.exp(1j * phi)
        p = AWParams(a, b, c, c.conjugate(), q)
        try:
            closed = aw_integral_closed(p)
        except Exception:
            continue
        numeric = 2.0 * aw_integral_numeric(p, n_nodes=512)
        assert abs(numeric - closed) <= 1e-8 * abs(closed)
        checked += 1


def test_aw_integral_pinned_values():
    q = 0.45
    sq = math.sqrt(q)
    one = AWParams(1.0, sq, -1.0, -sq, q)
    assert abs(complex(aw_integral_closed(one)) - 1.0) <= 1e-10
    zero = AWParams(0.0, 0.0, 0.0, 0.0, q)
    want = 2.0 / complex(qpoch(q, q, INFINITY))
    assert abs(complex(aw_integral_closed(zero)) - want) <= 1e-10 * abs(want)


# 3. orthogonality Gram suites


def _assert_gram(gram, closed_diag=None):
    nmax = len(gram) - 1
    diag = [abs(complex(gram[n][n])) for n in range(nmax + 1)]
    scale = max(diag)
    assert scale > 0
    for n in range(nmax + 1):
        for m in range(nmax + 1):
            entry = complex(gram[n][m])
            if n == m:
                if closed_diag is not None:
                    want = complex(closed_diag[n])
                    assert abs(entry - want) <= 1e-8 * abs(want)
            else:
                assert abs(entry) <= 1e-9 * scale


def test_gram_big_qjacobi():
    p = BigQJacobiParams(0.95, 0.3, 0.855, 1.0, 0.9)
    nmax = 6
    gram = big_qjacobi_gram_matrix(nmax, p)
    closed = [big_qjacobi_norm(n, p) for n in range(nmax + 1)]
    _assert_gram(gram, closed)


def test_gram_little_qjacobi():
    a, b, q = 0.5, 0.4, 0.7
    nmax = 6
    gram = little_qjacobi_gram_matrix(nmax, a, b, q)
    closed = [little_qjacobi_norm(n, a, b, q) for n in range(nmax + 1)]
    _assert_gram(gram, closed)


def test_gram_tableau_families():
    q = 0.5
    fams = [
        FamilyParams("q_hahn", q, a=0.4, b=0.3, N=6),
        FamilyParams("q_krawtchouk", q, b=0.6, N=6),
        FamilyParams("affine_q_krawtchouk", q, a=0.5, N=6),
        # the inverted-base weight spans many orders of magnitude; q and b
        # near 1 keep the finite sum well conditioned at N = 6
        FamilyParams("affine_qinv_krawtchouk", 0.7, b=0.7, N=6),
        FamilyParams("al_salam_carlitz_u", q, a=-0.6),
        FamilyParams("moak", q, alpha=0.7),
    ]
    for fam in fams:
        _assert_gram(family_gram_matrix(fam, 4))


def test_gram_askey_wilson_quadrature():
    p = AWParams(0.6, 0.4, -0.3, 0.2, 0.55)
    gram = aw_gram_quadrature(p, 5, n_nodes=1024)
    closed = [aw_norm(n, p) for n in range(6)]
    _assert_gram(gram, closed)


def test_gram_q_racah():
    q, N = 0.5, 6
    alpha, beta, delta = 0.4, 0.3, 0.6
    gamma = q ** float(-N - 1)
    _assert_gram(q_racah_gram_matrix(4, alpha, beta, gamma, delta, q, N))


# 4. dual-path agreement


def _agree(v1, v2):
    assert abs(v1 - v2) <= 1e-9 * max(1.0, abs(v1), abs(v2))


def test_dual_paths_20_random_arguments():
    rng = random.Random(44)
    lq = (0.95, 0.5, 0.5)
    wall = FamilyParams("wall", 0.8, a=0.4)
    moak = FamilyParams("moak", 0.8, alpha=0.7)
    bql = FamilyParams("big_q_laguerre", 0.9, a=0.4, c=1.0, d=1.3)
    awp = AWParams(0.6, 0.4, -0.3, 0.2, 0.8)
    for _ in range(20):
        n = rng.randrange(0, 9)
        x = rng.uniform(0.05, 1.0)
        q, a, b = lq
        _agree(
            little_qjacobi(n, x, a, b, q, form="2phi1"),
            little_qjacobi(n, x, a, b, q, form="3phi2"),
        )
        _agree(family_eval(wall, n, x), family_eval(wall, n, x, form="alt"))
        _agree(family_eval(moak, n, x), family_eval(moak, n, x, form="alt"))
        _agree(family_eval(bql, n, x), family_eval(bql, n, x, form="alt"))
        xa = rng.uniform(-1.0, 1.0)
        _agree(aw_poly(n, xa, awp), aw_poly_by_recurrence(n, xa, awp))
        theta = rng.uniform(0.1, math.pi - 0.1)
        v1 = complex(q_ultraspherical(n, theta, 0.45, 0.85, form="fourier"))
        v2 = complex(q_ultraspherical(n, theta, 0.45, 0.85, form="phi"))
        v3 = complex(q_ultraspherical(n, theta, 0.45, 0.85, form="aw"))
        _agree(v1, v2)
        _agree(v1, v3)


def test_quadratic_transforms():
    q, a = 0.9, 0.45
    p = BigQJacobiParams(a, a, 1.0, 1.0, q)
    from qspecial import big_qjacobi

    for n in range(0, 5):
        for x in (0.2, 0.45):
            even, odd = quadratic_transform_check(n, a, q, x=x)
            s = max(
                1.0,
                abs(big_qjacobi(2 * n, x, p)),
                abs(big_qjacobi(2 * n + 1, x, p)),
            )
            assert abs(even) <= 1e-9 * s
            assert abs(odd) <= 1e-9 * s
    for n in range(0, 9):
        u = family_eval(FamilyParams("al_salam_carlitz_u", q, a=-1.0), n, 0.7)
        r1, r2 = quadratic_transform_u(n, 0.7, q)
        s = max(1.0, abs(u))
        assert abs(r1) <= 1e-9 * s
        assert abs(r2) <= 1e-9 * s
        r = quadratic_transform_v(n, 0.8, q)
        assert abs(r) <= 1e-9 * max(1.0, abs(u))


# 5. shift-operator algebra


def test_shift_operator_algebra_50_parameter_sets():
    rng = random.Random(55)
    for _ in range(50):
        q = rng.uniform(0.5, 0.9)
        a = rng.uniform(0.05, 0.95)
        b = rng.uniform(0.05, 0.95)
        c = rng.uniform(0.3, 1.5)
        d = rng.uniform(0.3, 1.5)
        p = BigQJacobiParams(a, b, c, d, q)
        raised = BigQJacobiParams(q * a, q * b, c, d, q)
        n = rng.randrange(1, 7)
        k = rng.randrange(0, 6)
        x = c * q**k if rng.random() < 0.5 else -d * q**k
        down = big_qjacobi_shift_down(n, x, p)
        down_want = (1 - q**n) / (1 - q) * big_qjacobi_monic(n - 1, x, raised)
        s = max(1.0, abs(down_want))
        assert abs(down - down_want) <= 1e-10 * s
        up = big_qjacobi_shift_up(n, x, p)
        up_want = (
            (q**2 * a * b - q ** float(1 - n))
            / ((1 - q) * c * d)
            * big_qjacobi_monic(n, x, p)
        )
        s = max(1.0, abs(up_want))
        assert abs(up - up_want) <= 1e-10 * s
        lam = big_qjacobi_eigenvalue(n, p)
        lam_want = (
            (1 - q**n)
            / (1 - q)
            * (q**2 * a * b - q ** float(1 - n))
            / ((1 - q) * c * d)
        )
        assert abs(lam - lam_want) <= 1e-10 * max(1.0, abs(lam_want))


# 6. q-difference equations


def test_qhge_solution_basis_and_connection():
    p = QHGEParams(0.37, 0.61, 1.48, 0.55)
    q = p.q

    def check(u, z, tol=1e-9):
        s = max(1.0, abs(u(p, z)), abs(u(p, z * q)), abs(u(p, z / q)))
        assert abs(qhge_residual(lambda zz: u(p, zz), p, z)) <= tol * s

    for z in (0.15, 0.3, 0.45):
        check(solution_u1, z)
        check(solution_u2, z)
    for z in (1.6, 2.4):
        check(solution_u3, z)
    base = q ** (p.c - p.a - p.b)
    for m in range(3):
        check(solution_u4, base * q ** float(-m))
        check(solution_u5, q ** float(m + 1))
    for z0 in (0.5, 0.7, 0.85):
        s = max(
            1.0,
            abs(solution_u1(p, z0)),
            abs(solution_u2(p, z0)),
            abs(solution_u3(p, z0)),
        )
        assert abs(connection_residual(p, z0)) <= 1e-8 * s


def test_aw_operator_eigen_equation():
    p = AWParams(0.6, 0.4, -0.3, 0.2, 0.55)
    for n in range(0, 6):
        for theta in (0.4, 1.1, 2.0):
            z = cmath.exp(1j * theta)
            s = max(1.0, abs(aw_poly(n, math.cos(theta), p)))
            assert abs(aw_qdifference_residual(n, z, p)) <= 1e-9 * s


# 7. limit harness


def test_limit_harness_all_paths():
    paths = list_paths()
    assert len(paths) >= 14
    for name in paths:
        rep = run_limit(name)
        assert rep.passed, f"{name}: {rep.final_error}"
        assert rep.final_error <= 1e-3
        assert rep.finally_decreasing


# 8. partition oracle


def test_partition_oracle():
    # exhaustive enumeration for the pinned values
    def count(remaining, largest):
        if remaining == 0:
            return 1
        return sum(
            count(remaining - part, part)
            for part in range(min(remaining, largest), 0, -1)
        )

    assert partition_count(5) == 7 == count(5, 5)
    assert partition_count(10) == 42 == count(10, 10)
    # integer-exact match with the inverted Euler product up to n = 40
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
        inv[m] = -sum(euler[j] * inv[m - j] for j in range(1, m + 1))
    for n in range(order):
        assert partition_count(n) == inv[n]


def test_partition_series_identities_integer_exact():
    from qspecial import identities, verify

    for identity_id in (
        "partition_series_all",
        "partition_series_min_part",
        "partition_series_distinct",
    ):
        rep = verify(identity_id, samples=5, seed=0)
        assert rep.passed
        assert rep.max_rel_error == 0.0
    # the streams, sum and product, beyond the catalog's order 40
    order = 120
    for m in range(1, 5):
        inv = identities._euler_inv_series(m, order)
        assert identities._partition_sum_coeffs(m, False, order) == inv
        distinct = identities._euler_plus_int_series(m, order)
        assert identities._partition_sum_coeffs(m, True, order) == distinct
        if m == 1:
            assert inv == [partition_count(n) for n in range(order + 1)]


# 9. expected failure: quadrature-only Gram with |parameter| > 1


def test_expected_failure_aw_quadrature_exit_code(capsys):
    code = main(
        [
            "ortho",
            "aw",
            "a=1.8",
            "b=0.3",
            "c=-0.2",
            "d=0.1",
            "q=0.5",
            "--nmax",
            "3",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "continuous-part-only quadrature" in out
    assert "BREACH" in out
