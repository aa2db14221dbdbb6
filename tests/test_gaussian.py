import hashlib
import math
import os
import statistics
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from pytest import approx
from scipy import special

import losslin
from losslin import DomainError, cdf, inv_cdf, phi
from losslin import gaussian as gaussian_mod
from losslin import partition as partition_mod

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# frozen oracle values: phi(1) by direct formula evaluation,
# cdf(0.886942) by high-precision quadrature of the density,
# inv_cdf(0.812445) by bisection on the distribution function
PHI_AT_ONE = 0.24197072451914337
CDF_AT_0886942 = 0.8124449361057707
QUANTILE_AT_0812445 = 0.8869422373416686


def test_phi_at_zero():
    assert phi(0.0) == approx(INV_SQRT_2PI, abs=1e-15)


def test_phi_at_one():
    assert phi(1.0) == approx(PHI_AT_ONE, abs=1e-15)


def test_phi_symmetry_exact():
    for x in np.linspace(-6.0, 6.0, 241):
        assert phi(x) == phi(-x)


def test_phi_array_input():
    xs = np.array([-1.0, 0.0, 1.0])
    out = phi(xs)
    assert out.shape == (3,)
    assert out[0] == out[2]


def test_phi_is_the_plain_formula_up_to_40():
    xs = np.linspace(-40.0, 40.0, 8001)
    assert np.array_equal(phi(xs), INV_SQRT_2PI * np.exp(-0.5 * xs * xs))
    assert phi(40.0) == phi(-40.0) == 0.0


@pytest.mark.parametrize("x", [40.5, 1.3e154, 1e200, -1e200, 1.7e308])
def test_phi_vanishes_far_out_without_overflow(x):
    # x^2 overflows beyond ~1.3e154; the density is exactly 0.0 from 40 on
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert phi(x) == 0.0
        assert np.array_equal(phi(np.array([x, 0.0])), [0.0, phi(0.0)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_phi_rejects_non_finite(bad):
    with pytest.raises(DomainError):
        phi(bad)


def test_cdf_midpoint_exact():
    assert cdf(0.0) == 0.5


def test_cdf_limits():
    assert cdf(math.inf) == 1.0
    assert cdf(-math.inf) == 0.0


def test_cdf_saturates_beyond_resolution():
    assert cdf(38.5) == 1.0
    assert cdf(-38.5) == 0.0


def test_cdf_known_point():
    assert cdf(0.886942) == approx(CDF_AT_0886942, abs=1e-12)


def test_cdf_rejects_nan():
    with pytest.raises(DomainError):
        cdf(math.nan)
    with pytest.raises(DomainError):
        cdf(np.array([0.0, math.nan]))


def test_cdf_high_precision_reference():
    # mpmath as an independent many-digit oracle
    for x in np.linspace(-8.0, 8.0, 161):
        assert cdf(float(x)) == approx(float(mpmath.ncdf(x)), abs=1e-12)


def test_phi_high_precision_reference():
    for x in np.linspace(-8.0, 8.0, 161):
        assert phi(float(x)) == approx(float(mpmath.npdf(x)), abs=1e-15)


def test_cdf_symmetry():
    xs = np.arange(-6.0, 6.0 + 1e-9, 0.01)
    total = cdf(xs) + cdf(-xs)
    assert np.max(np.abs(total - 1.0)) <= 1e-14


def test_cdf_derivative_matches_density():
    h = 1e-5
    xs = np.arange(-5.0, 5.0 + 1e-9, 0.05)
    deriv = (cdf(xs + h) - cdf(xs - h)) / (2.0 * h)
    assert np.max(np.abs(deriv - phi(xs))) <= 1e-6


def test_inv_cdf_median():
    assert inv_cdf(0.5) == approx(0.0, abs=1e-15)


def test_inv_cdf_round_trip_scalar():
    assert inv_cdf(cdf(1.3)) == approx(1.3, abs=1e-10)


def test_inv_cdf_known_mass():
    assert inv_cdf(0.812445) == approx(QUANTILE_AT_0812445, abs=1e-9)


def test_inv_cdf_round_trip_grid():
    xs = np.arange(-6.0, 5.5 + 1e-9, 0.01)
    back = inv_cdf(cdf(xs))
    assert np.max(np.abs(back - xs)) <= 1e-9


def test_inv_cdf_round_trip_far_right_tail():
    # approaching +6 the cdf is within 1e-9 of 1, where rounding p to the
    # nearest double already shifts the preimage by up to ~9.1e-9; the
    # round trip cannot beat that floor, only stay at it
    xs = np.arange(5.5, 6.0 + 1e-9, 0.01)
    back = inv_cdf(cdf(xs))
    assert np.max(np.abs(back - xs)) <= 1e-8


def test_inv_cdf_monotone():
    ps = np.linspace(1e-9, 1.0 - 1e-9, 20001)
    qs = inv_cdf(ps)
    assert np.all(np.diff(qs) >= 0.0)


def test_inv_cdf_defect_stays_small():
    ps = np.linspace(1e-6, 1.0 - 1e-6, 4001)
    assert np.max(np.abs(cdf(inv_cdf(ps)) - ps)) <= 1e-12


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5, math.nan])
def test_inv_cdf_rejects_out_of_range(bad):
    with pytest.raises(DomainError):
        inv_cdf(bad)


@given(st.floats(min_value=-7.5, max_value=5.5))
def test_round_trip_property(x):
    # the left tail keeps full relative resolution in p; the right limit
    # stays below the onset of the near-one rounding floor
    assert inv_cdf(cdf(x)) == approx(x, abs=1e-8)


@given(st.floats(min_value=-30.0, max_value=30.0))
def test_symmetry_property(x):
    assert cdf(x) + cdf(-x) == approx(1.0, abs=1e-14)


# |x| at and around the saturation (38), the clip before squaring (40) and far out
KERNEL_EDGES = [e * s for e in (38.0, 40.0, 1e200, 1.7e308) for s in (1.0, -1.0)]
KERNEL_EDGES += [np.nextafter(e, t) for e in KERNEL_EDGES for t in (0.0, 2.0 * e)]
KERNEL_EDGES += [0.0, -0.0, 5e-324, 39.999, -37.5]


def _kernel_bits(x):
    big, small = np.empty_like(x), np.empty_like(x)
    out = gaussian_mod._cdf_phi(x, big, small)
    assert out[0] is big and out[1] is small
    return big.tobytes(), small.tobytes()


def _cdf_reference(x):
    """cdf's formula before it became the kernel's Phi half."""
    out = 0.5 * special.erfc(-np.clip(x, -38.0, 38.0) / math.sqrt(2.0))
    out = np.where(x <= -38.0, 0.0, out)
    return np.where(x >= 38.0, 1.0, out)


@given(st.lists(st.one_of(st.floats(-45.0, 45.0), st.floats(-1e200, 1e200),
                          st.sampled_from(KERNEL_EDGES)), max_size=40))
def test_fused_kernel_is_bitwise_cdf_and_phi(values):
    x = np.array(values, dtype=float)
    assert _kernel_bits(x) == (_cdf_reference(x).tobytes(), phi(x).tobytes())
    assert cdf(x).tobytes() == _kernel_bits(x)[0]


def test_fused_kernel_is_bitwise_cdf_and_phi_on_a_dense_grid():
    x = np.concatenate((np.linspace(-41.0, 41.0, 164_001), KERNEL_EDGES))
    assert _kernel_bits(x) == (_cdf_reference(x).tobytes(), phi(x).tobytes())
    assert cdf(x).tobytes() == _kernel_bits(x)[0]


@pytest.mark.parametrize("x", [math.inf, -math.inf, 38.0, -38.0, 40.0, -40.0, 50.0, -50.0, 0.3])
def test_cdf_keeps_its_bits_at_the_limits(x):
    assert cdf(x) == float(_cdf_reference(np.array(x)))
    assert cdf(np.array([[x]])).tobytes() == _cdf_reference(np.array([[x]])).tobytes()


def _quantile_reference(p: float) -> float:
    """x with Phi(x) = p to 45 digits: Newton on log Phi from the stdlib's estimate,
    solved in the lower tail, where 1 - p is exact for p >= 1/2."""
    q = min(p, 1.0 - p)
    with mpmath.workdps(45):
        x, log_q = mpmath.mpf(statistics.NormalDist().inv_cdf(q)), mpmath.log(q)
        for _ in range(3):
            c = mpmath.ncdf(x)
            x -= (mpmath.log(c) - log_q) * c / mpmath.npdf(x)
    return float(x) if p <= 0.5 else -float(x)


def test_inv_cdf_matches_a_45_digit_reference():
    rng = np.random.default_rng(26)
    ps = np.concatenate((
        np.ldexp(rng.random(60), rng.integers(-1074, -1022, 60)),  # subnormal
        np.ldexp(rng.random(200) + 0.5, rng.integers(-1022, -1, 200)),  # lower tail
        rng.random(200),  # centre
        1.0 - np.ldexp(rng.random(100) + 0.5, rng.integers(-53, -1, 100)),  # upper tail
        [2.0**-1074, 2.0**-1022, 0.5, 1.0 - 2.0**-53]))
    ps = ps[(ps > 0.0) & (ps < 1.0)]
    want = np.array([_quantile_reference(float(p)) for p in ps])
    err = np.abs(inv_cdf(ps) - want) / np.maximum(np.abs(want), 1.0)
    assert err.max() <= 2e-15


def test_inv_cdf_is_antisymmetric_on_dyadic_p():
    # random doubles are multiples of 2**-53, so 1 - p is exact
    rng = np.random.default_rng(26)
    ps = np.concatenate((rng.random(20_000), [2.0**-53, 0.25, 0.5, 0.75, 1.0 - 2.0**-53]))
    ps = ps[ps > 0.0]
    assert np.array_equal(inv_cdf(1.0 - ps), -inv_cdf(ps))
    assert inv_cdf(0.75) == -inv_cdf(0.25)


_NO_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"
_DIGESTS = """
import hashlib, sys
import numpy as np
from losslin import cdf, inv_cdf, partition
x, p = np.frombuffer(sys.stdin.buffer.read()).reshape(2, -1)
values = (cdf(x), inv_cdf(p), *map(partition._start, (10, 1000, 10001)))
print(*(hashlib.sha256(v.tobytes()).hexdigest() for v in values))
"""


def test_cdf_and_inv_cdf_bytes_do_not_depend_on_simd_dispatch():
    # numpy picks exp and log kernels by CPU feature; the grid is built without them.
    # Newton's start in the solve is hashed too, as it is built from inv_cdf.
    # Without AVX-512, or on a numpy that does not know these names, both runs agree.
    rng = np.random.default_rng(26)
    n = 100_000
    x = np.ldexp(rng.random(n) - 0.5, rng.integers(-20, 8, n))
    p = np.ldexp(rng.random(n), -rng.integers(0, 1075, n))
    p[::2] = 1.0 - np.ldexp(rng.random(n // 2), -rng.integers(1, 54, n // 2))
    p[(p <= 0.0) | (p >= 1.0)] = 0.5
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=_NO_AVX512)
    env["PYTHONPATH"] = os.pathsep.join(
        v for v in (os.path.dirname(os.path.dirname(losslin.__file__)), env.get("PYTHONPATH")) if v)
    proc = subprocess.run([sys.executable, "-c", _DIGESTS], input=np.stack((x, p)).tobytes(),
                          capture_output=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    values = (cdf(x), inv_cdf(p), *map(partition_mod._start, (10, 1000, 10001)))
    here = [hashlib.sha256(v.tobytes()).hexdigest() for v in values]
    assert proc.stdout.decode().split() == here
