"""Parity tests between the compiled kernels and the pure-Python twins.

The hand-written extension src/qspecial/_kernels.c is compiled here by the
C compiler that sysconfig names, into a temporary directory, and loaded
with importlib; the tests skip only when no C compiler is found.
"""

import cmath
import importlib.util
import math
import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspecial import _kernels_py as py

TESTS = Path(__file__).resolve().parent
SOURCE = TESTS.parent / "src" / "qspecial" / "_kernels.c"


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    ld = shlex.split(sysconfig.get_config_var("LDSHARED") or cc[0] + " -shared")
    if shutil.which(cc[0]) is None or shutil.which(ld[0]) is None:
        pytest.skip("no C compiler")
    out = tmp_path_factory.mktemp("kernels")
    obj = out / "_kernels.o"
    lib = out / ("_kernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    include = sysconfig.get_paths()["include"]
    pic = shlex.split(sysconfig.get_config_var("CCSHARED") or "")
    subprocess.run(
        [*cc, *pic, "-O2", "-I", include, "-c", str(SOURCE), "-o", str(obj)],
        check=True,
    )
    subprocess.run([*ld, str(obj), "-o", str(lib), "-lm"], check=True)
    spec = importlib.util.spec_from_file_location("qspecial._kernels", lib)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_backend_labels(compiled):
    assert py.BACKEND == "python"
    assert compiled.BACKEND == "c"


def test_qpoch_finite_parity(compiled):
    # counts as long as the compiled product/log-series crossover sends for
    # a truncated (a;q)_oo: up to 1000 factors, plus 2
    rng = random.Random(1)
    for _ in range(50):
        a = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        q = rng.uniform(0.1, 0.99)
        k = rng.randrange(0, 1003)
        assert compiled.qpoch_finite(a, q, k) == pytest.approx(
            py.qpoch_finite(a, q, k), rel=1e-14, abs=1e-300
        )


def test_qpoch_negative_parity(compiled):
    rng = random.Random(2)
    for _ in range(50):
        a = rng.uniform(-1.5, 1.5)
        q = rng.uniform(0.3, 0.9)
        k = rng.randrange(1, 15)
        vc, sc = compiled.qpoch_negative(a, q, k)
        vp, sp = py.qpoch_negative(a, q, k)
        assert sc == sp == 0
        assert vc == pytest.approx(vp, rel=1e-13)
    # a = q^2: the second factor 1 - a q^-2 vanishes; a = q: the first
    # vanishes, and the 1999 after it overflow, where 0 * inf = nan would
    # hide the zero
    for args in ((0.25, 0.5, 3), (0.5, 0.5, 2000)):
        assert compiled.qpoch_negative(*args) == py.qpoch_negative(*args) == (0j, 2)


def _phi_pair(compiled, *args):
    """Both backends' phi_sum on args: same status, value and sum |t_k|
    within 1e-13; returns the Python twin's result."""
    vc, sc, mc = compiled.phi_sum(*args)
    vp, sp, mp = py.phi_sum(*args)
    assert sc == sp
    assert vc == pytest.approx(vp, rel=1e-13)
    assert mc == pytest.approx(mp, rel=1e-13)
    assert mp >= abs(vp) * (1 - 1e-13)
    return vp, sp, mp


def test_phi_sum_parity(compiled):
    rng = random.Random(4)
    for _ in range(50):
        q = rng.uniform(0.2, 0.8)
        nu = rng.randrange(0, 3)
        # keep the ratio bounded: a power 1 + nl - nu >= 0
        nl = rng.randrange(max(0, nu - 1), 3)
        upper = tuple(complex(rng.uniform(0.1, 0.9)) for _ in range(nu))
        lower = tuple(complex(rng.uniform(0.1, 0.9)) for _ in range(nl))
        z = rng.uniform(0.05, 0.8)
        sp_pow = 1 + len(lower) - len(upper)
        _, status, _ = _phi_pair(compiled, upper, lower, q, z, sp_pow, -1, 1e-16, 100000)
        assert status == 0


def test_phi_sum_parity_on_psi_halves(compiled):
    # the two walks of a bilateral series: k >= 0 with e zero lower
    # parameters, and k < 0 reflected, with lower q/a, upper q/b and the
    # power e taken from those zeros
    rng = random.Random(6)
    for _ in range(30):
        q = rng.uniform(0.2, 0.8)
        upper = [complex(rng.uniform(-2, -0.3), rng.uniform(-0.5, 0.5))
                 for _ in range(rng.randrange(0, 3))]
        lower = [complex(rng.uniform(-0.9, 0.9)) for _ in range(rng.randrange(len(upper), 3))]
        e = rng.randrange(0, 3)
        z = rng.uniform(0.05, 0.9)
        up = (upper, lower + [0j] * e, q, z, len(lower) + e - len(upper))
        down = ([q / b for b in lower], [q / a for a in upper], q, z, e)
        for args in (up, down):
            _, status, _ = _phi_pair(compiled, *args, -1, 1e-16, 100000)
            assert status == 0
    # an upper parameter a = q makes the reflected lower q/a = 1: a pole
    assert _phi_pair(compiled, (), (1 + 0j,), 0.5, 0.3, 0, -1, 1e-16, 1000)[1:] == (2, 1.0)


def test_phi_sum_terminating_parity(compiled):
    q = 0.6
    n = 7
    upper = (q ** float(-n), 0.3 + 0.0j)
    lower = (0.5 + 0.0j,)
    vc, sc, mc = compiled.phi_sum(upper, lower, q, 0.4, 0, n, 1e-16, 100000)
    vp, sp, mp = py.phi_sum(upper, lower, q, 0.4, 0, n, 1e-16, 100000)
    assert sc == sp == 0
    assert vc == pytest.approx(vp, rel=1e-14)
    assert mc == pytest.approx(mp, rel=1e-14)


def test_phi_sum_zero_denominator_status(compiled):
    q = 0.5
    lower = (q ** -2.0,)
    _, status, mass = _phi_pair(compiled, (0.3 + 0j,), lower, q, 0.2, 1, -1, 1e-16, 1000)
    assert status == 2
    # the terms t_0, t_1 and t_2 were summed before the zero factor at k = 2
    assert mass > 1.0


def test_phi_sum_budget_status(compiled):
    # a ratio z (1 - 0.5 q^k) tending to z = 0.999 needs far more than 50 terms
    _, status, _ = _phi_pair(compiled, (0.5 + 0j,), (), 0.5, 0.999, 0, -1, 1e-16, 50)
    assert status == 1


def test_phi_sum_takes_any_parameter_count(compiled):
    rng = random.Random(5)
    upper = [complex(rng.uniform(0.1, 0.9), rng.uniform(-0.2, 0.2)) for _ in range(17)]
    lower = [complex(rng.uniform(0.1, 0.9), rng.uniform(-0.2, 0.2)) for _ in range(17)]
    value, status, _ = _phi_pair(compiled, upper, lower, 0.6, 0.7 - 0.2j, 1, -1, 1e-16, 100000)
    assert status == 0
    assert value != 1


def _full_ratio_sum(upper, lower, q, z, sign_power, n_terms, tail_epsilon, max_terms):
    """phi_sum as it was before its geometric phase: every term forms every
    factor 1 - p q^k.  Returns phi_sum's (value, status, sum |t_k|) and
    the number of terms walked."""
    z = complex(z)
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    mass = 1.0
    scale = 1.0
    qk = 1.0
    quiet = 0
    tail = n_terms < 0
    for k in range(max_terms if tail else n_terms):
        num = z
        for a in upper:
            num *= 1.0 - a * qk
        den = 1.0
        for b in lower:
            den *= 1.0 - b * qk
        if den == 0:
            return (total, 2, mass), k
        if sign_power:
            num *= (-qk) ** sign_power
        term = term * num / den
        total += term
        t = abs(term)
        mass += t
        if t > scale:
            scale = t
        if tail:
            if t < tail_epsilon * scale:
                quiet += 1
                if quiet >= 5:
                    return (total, 0, mass), k + 1
            else:
                quiet = 0
        qk *= q
    return (total, 1 if tail else 0, mass), max_terms if tail else n_terms


def _switch_index(upper, lower, q, z):
    """The first k whose q^k, formed as the kernel forms it, is at or below
    the geometric cut; None for a walk that never switches.  A complex z or
    parameter sends the walk to the complex loop, which has no cut."""
    if any(complex(p).imag for p in (*upper, *lower, z)):
        return None
    cut = py._geometric_cut(upper, lower, q)
    qk, k = 1.0, 0
    while not qk <= cut:
        if qk == 0 or cut != cut:
            return None
        qk *= q
        k += 1
    return k


def _bit_exact(compiled, *args, switches):
    """Both backends' phi_sum on args equal the full-ratio walk with ==;
    switches says whether the walk reaches its geometric phase."""
    ref, terms = _full_ratio_sum(*args)
    for backend in (py, compiled):
        assert backend.phi_sum(*args) == ref
    k = _switch_index(*args[:4]) if args[4] == 0 and args[5] < 0 else None
    assert (k is not None and k < terms) == switches
    return ref


def test_phi_sum_geometric_phase_is_bit_exact(compiled):
    rng = random.Random(7)
    for _ in range(40):
        q = rng.uniform(0.1, 0.8)
        upper = [rng.uniform(-3, 3) for _ in range(rng.randrange(0, 4))]
        lower = [q] + [rng.choice([float, complex])(rng.uniform(-3, 3))
                       for _ in range(rng.randrange(0, 3))]
        z = rng.uniform(0.9, 0.999) * rng.choice([1, -1])
        assert _bit_exact(compiled, upper, lower, q, z, 0, -1, 1e-16, 100000, switches=True)[1] == 0


def test_phi_sum_geometric_phase_on_psi_halves(compiled):
    # 1psi1 and 2psi2 with real parameters, so both halves have power 0;
    # the last lower parameter puts |z'| = |b1..bs / (a1..ar z)| near 1 too
    rng = random.Random(8)
    for _ in range(20):
        q = rng.uniform(0.2, 0.8)
        r = rng.randrange(1, 3)
        upper = [rng.uniform(-2, -0.3) for _ in range(r)]
        z = rng.uniform(0.9, 0.999)
        lower = [rng.choice([1, -1]) * rng.uniform(0.3, 0.9) for _ in range(r - 1)]
        lower.append(rng.uniform(0.9, 0.99) * z * math.prod(upper) / math.prod(lower))
        up = (upper, lower, q, z, 0)
        down_z = math.prod(lower) / (z * math.prod(upper))
        down = ([q / b for b in lower], [q / a for a in upper], q, down_z, 0)
        for args in (up, down):
            _bit_exact(compiled, *args, -1, 1e-16, 100000, switches=True)


def test_phi_sum_geometric_cut_straddle(compiled):
    # big q^k a few ulps either side of 2^-54: at k = 53 the factor
    # 1 - (1 + d) 2^-54 is 1 - 2^-53 for d > 0, so that term keeps the
    # full ratio, and from k = 54 on every factor is 1
    for d in (-(2.0**-48), 0.0, 2.0**-52, 2.0**-40):
        for sign in (1, -1):
            upper = [sign * 0.5 * (1 + d)]
            args = (upper, [0.25], 0.5, 0.99, 0, -1, 1e-16, 100000)
            _bit_exact(compiled, *args, switches=True)
            assert _switch_index(*args[:4]) == (53 if d < 0 else 54)
    # and at random q: big q^k within 4 ulps of 2^-54, q^k formed as the
    # kernel forms it, so the walk leaves the full ratio at k or k + 1
    rng = random.Random(9)
    for _ in range(20):
        q, qk = rng.uniform(0.3, 0.9), 1.0
        k = math.ceil(math.log(2.0**-54 / rng.uniform(0.5, 20)) / math.log(q))
        for _ in range(k):
            qk *= q
        big = 2.0**-54 / qk * (1 + rng.randrange(-4, 5) * 2.0**-52)
        upper = [rng.choice([1, -1]) * big, rng.uniform(-big, big)]
        _bit_exact(compiled, upper, [q], q, 0.995, 0, -1, 1e-16, 100000, switches=True)
        assert _switch_index(upper, [q], q, 0.995) in (k, k + 1)


def test_phi_sum_never_switches_on_complex_parameters_or_a_power(compiled):
    rng = random.Random(10)
    for _ in range(20):
        q = rng.uniform(0.2, 0.8)
        upper = [complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.5)), rng.uniform(-2, 2)]
        _bit_exact(compiled, upper, [q], q, 0.95, 0, -1, 1e-16, 100000, switches=False)
    # real parameters and a complex z: the complex loop, full ratio throughout
    for _ in range(10):
        q = rng.uniform(0.1, 0.8)
        upper = [rng.uniform(-3, 3) for _ in range(rng.randrange(0, 3))]
        z = rng.uniform(0.9, 0.999) * rng.choice([1j, -1j, (1 + 1j) / 2**0.5])
        _bit_exact(compiled, upper, [q], q, z, 0, -1, 1e-16, 100000, switches=False)
    # small q and a small complex parameter: its factor's imaginary part,
    # below 2^-54 past the cut, still shows in about half these walks
    for _ in range(40):
        q = rng.uniform(0.02, 0.1)
        upper = [complex(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))]
        _bit_exact(compiled, upper, [q], q, 0.95, 0, -1, 1e-16, 100000, switches=False)
    for sign_power in (1, 2):  # 1phi1 and 0phi1: the power (-q^k)^e
        for _ in range(10):
            q = rng.uniform(0.2, 0.95)
            lower = [q] + [rng.uniform(-0.9, 0.9) for _ in range(sign_power)]
            upper = [rng.uniform(-2, 2) for _ in range(2 - sign_power)]
            args = (upper, lower, q, rng.uniform(-20, 20), sign_power, -1, 1e-16, 100000)
            _bit_exact(compiled, *args, switches=False)
    # a 1phi1 whose terms peak where q^k reaches the cut 2^-52: its ratio
    # there is about -q^k z, not z
    args = ([0.2], [0.25, 0.1], 0.25, 2.0**54, 1, -1, 1e-16, 100000)
    assert math.isfinite(_bit_exact(compiled, *args, switches=False)[0].real)
    # a terminating walk runs its n_terms on the full ratio
    q = 0.5
    args = ([q**-30.0, 0.5], [q, 0.25], q, 0.999, 0, 30, 1e-16, 100000)
    _bit_exact(compiled, *args, switches=False)


def test_phi_sum_budget_runs_out_in_the_geometric_phase(compiled):
    # the cut is reached near k = 35; the tail of z = 0.999 needs 36 000 terms
    args = ([0.7, -1.5], [0.3, 0.4], 0.3, 0.999, 0, -1, 1e-16, 500)
    assert _switch_index(*args[:4]) < 500
    assert _bit_exact(compiled, *args, switches=True)[1] == 1


@given(
    q=st.floats(0.05, 0.95),
    upper=st.lists(st.floats(-4, 4), max_size=3),
    lower=st.lists(st.floats(-4, 4), max_size=2),
    z=st.one_of(st.floats(0.9, 0.999), st.floats(-0.999, 0.999), st.floats(-1e12, 1e12)),
    sign_power=st.sampled_from((0, 0, 1, 2)),
    n_terms=st.one_of(st.just(-1), st.integers(0, 40)),
)
@settings(max_examples=150, deadline=None)
def test_real_walk_gives_the_complex_loops_bits(compiled, q, upper, lower, z, sign_power, n_terms):
    # every entry real, so both kernels run their float loop; the complex
    # full-ratio loop is the reference.  About half the draws are tail
    # walks (n_terms = -1) with power 0 that run past the geometric cut,
    # a third have a power, a third terminate; a term that overflows is
    # status 3 where the reference goes on to inf or NaN
    args = (upper, [q] + lower, q, z, sign_power, n_terms, 1e-16, 2000)
    ref, _ = _full_ratio_sum(*args)
    for backend in (py, compiled):
        got = backend.phi_sum(*args)
        if got[1] == 3:
            assert not cmath.isfinite(ref[0])
        else:
            assert got == ref


def test_real_product_gives_the_complex_loops_bits(compiled):
    rng = random.Random(11)
    for _ in range(200):
        a, q, k = rng.uniform(-5, 5), rng.uniform(0.05, 0.99), rng.randrange(0, 300)
        out, f = 1.0 + 0.0j, complex(a)
        for _ in range(k):
            out *= 1.0 - f
            f *= q
        assert py.qpoch_finite(a, q, k) == compiled.qpoch_finite(a, q, k) == out


def test_phi_sum_overflow_status(compiled):
    # terms that overflow stop the walk at once with status 3, unsummed, so
    # value and sum |t_k| stay finite: a tail walk (which ran out its
    # budget before), a terminating one, and one whose terms are NaN, as
    # the factors of both numerator and denominator overflow
    walks = (
        ([1e200, 1e200], [0.5, 0.5], 0.5, 0.9, 0, -1),
        ([0.5**-30, 1e200], [0.5, 0.5], 0.5, 1e150, 0, 30),
        ([1e200, 1e200], [0.5, 1e200, 1e200], 0.5, 0.9, 1, 5),
        ([complex(1e200, 1e200)], [0.5], 0.5, 0.9, 0, -1),
    )
    for walk in walks:
        for backend in (py, compiled):
            value, status, mass = backend.phi_sum(*walk, 1e-16, 100000)
            assert status == 3
            assert cmath.isfinite(value) and math.isfinite(mass)


def test_wrong_arity_raises_type_error(compiled):
    for backend in (compiled, py):
        with pytest.raises(TypeError):
            backend.phi_sum((), (), 0.5, 0.1)
        with pytest.raises(TypeError):
            backend.qpoch_finite(0.3, 0.5, 2.0)


def _run_compiled_build(compiled, tmp_path, code):
    """Run code in a fresh interpreter whose qspecial imports the compiled
    extension, as a build with it in place does: so qcore also picks the
    compiled product/log-series crossover at import."""
    prelude = f"""
import importlib.util, sys
spec = importlib.util.spec_from_file_location("qspecial._kernels", {compiled.__file__!r})
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
sys.modules["qspecial._kernels"] = module
from qspecial import kernels
assert kernels.BACKEND == "c"
"""
    path = os.pathsep.join([str(SOURCE.parent.parent), str(TESTS)])
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", prelude + code],
        env=dict(os.environ, PYTHONPATH=path),
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def test_catalog_passes_on_the_compiled_kernels(compiled, tmp_path):
    _run_compiled_build(compiled, tmp_path, """
from qspecial import verify_all
reports = verify_all(samples=3, seed=0)
assert [r.id for r in reports if not r.passed] == []
""")


def test_qpoch_infinite_matches_oracle_on_the_compiled_kernels(compiled, tmp_path):
    _run_compiled_build(compiled, tmp_path, """
import test_qcore
test_qcore.test_qpoch_infinite_matches_oracle_or_raises_range()
""")


def test_out_of_range_raises_on_the_compiled_kernels(compiled, tmp_path):
    _run_compiled_build(compiled, tmp_path, """
import test_qcore, test_qseries
test_qcore.test_qpoch_finite_index_outside_the_double_range()
test_qseries.test_phi_term_overflow_raises_out_of_range()
""")
