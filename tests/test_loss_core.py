import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from pytest import approx

from losslin import (
    DomainError,
    GenericDistribution,
    InvalidParameterError,
    NormalParams,
    QuadratureError,
    STANDARD,
    adaptive_simpson,
    cdf,
    closs,
    closs_generic,
    closs_std,
    loss,
    loss_std,
    phi,
)

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# frozen quadrature-oracle values (integral of the cdf up to x, resp. of
# the survival function above x, evaluated to many digits)
CLOSS_AT_0886942 = 0.9897993682873069
CLOSS_AT_ONE = 1.0833154705876863
LOSS_AT_TWO = 0.008490702616829638

GRID = np.arange(-6.0, 6.0 + 1e-9, 0.01)


def std_normal_generic() -> GenericDistribution:
    # cdf routed through the stdlib erfc so the quadrature oracle shares
    # nothing with the package's own evaluation path
    return GenericDistribution(
        cdf=lambda t: 0.5 * math.erfc(-t / math.sqrt(2.0)),
        mean=0.0,
    )


class TestClosedForms:
    def test_closs_std_at_zero(self):
        assert closs_std(0.0) == approx(INV_SQRT_2PI, abs=1e-15)

    def test_closs_std_known_point(self):
        assert closs_std(0.886942) == approx(CLOSS_AT_0886942, abs=1e-13)

    def test_closs_std_left_limit(self):
        assert closs_std(-40.0) == 0.0

    def test_closs_std_right_limit(self):
        assert closs_std(40.0) == 40.0

    def test_closs_std_positive(self):
        assert np.all(closs_std(GRID) > 0.0)

    def test_loss_std_at_zero(self):
        assert loss_std(0.0) == approx(INV_SQRT_2PI, abs=1e-15)

    def test_loss_std_known_point(self):
        assert loss_std(2.0) == approx(LOSS_AT_TWO, abs=1e-13)

    def test_loss_std_vanishes_far_right(self):
        assert loss_std(40.0) == 0.0
        assert 0.0 < loss_std(8.0) < 1e-14

    def test_rejects_non_finite(self):
        for fn in (closs_std, loss_std):
            with pytest.raises(DomainError):
                fn(math.nan)
            with pytest.raises(DomainError):
                fn(math.inf)


def _mirrored_loss_std(x):
    """The direct loss kernel phi(x) - x * Phi(-x), saturated beyond |x| > 38."""
    arr = np.asarray(x, dtype=float)
    clipped = np.clip(arr, -38.0, 38.0)
    val = phi(clipped) - cdf(-clipped) * clipped
    val = np.where(arr > 38.0, 0.0, val)
    return np.where(arr < -38.0, -arr, val)


class TestLossByReflection:
    """loss_std is closs_std(-x); the direct kernel stays here as its reference."""

    def test_bitwise_equal_to_direct_kernel(self):
        edges = [38.0, -38.0, 0.0, -0.0]
        edges += [np.nextafter(e, t) for e in (38.0, -38.0) for t in (0.0, 99.0 * e)]
        xs = np.concatenate([np.linspace(-45.0, 45.0, 200_001), edges])
        assert loss_std(xs).tobytes() == _mirrored_loss_std(xs).tobytes()
        assert loss_std(xs).tobytes() == closs_std(-xs).tobytes()

    @given(st.floats(-60.0, 60.0), st.floats(-50.0, 50.0), st.floats(0.01, 100.0))
    def test_scaled_loss_matches_direct_kernel(self, x, mu, sigma):
        want = sigma * float(_mirrored_loss_std((x - mu) / sigma))
        assert loss(x, NormalParams(mu, sigma)) == want

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            loss_std(bad)
        with pytest.raises(DomainError):
            loss_std(np.array([0.0, bad]))

    @pytest.mark.parametrize("x", [0.5, -2, np.float64(3.0), np.array(1.5)])
    def test_scalar_input_gives_float(self, x):
        assert type(loss_std(x)) is float


class TestScaling:
    def test_closs_at_the_mean(self):
        assert closs(20.0, NormalParams(20.0, 5.0)) == approx(5.0 * INV_SQRT_2PI, rel=1e-14)

    def test_loss_equals_closs_at_the_mean(self):
        params = NormalParams(20.0, 5.0)
        assert loss(20.0, params) == approx(closs(20.0, params), abs=1e-14)

    def test_standard_scale_is_identity(self):
        for x in (-2.5, 0.0, 1.2):
            assert closs(x, STANDARD) == closs_std(x)
            assert loss(x, STANDARD) == loss_std(x)

    def test_loss_far_above_mean(self):
        val = loss(120.0, NormalParams(20.0, 5.0))
        assert 0.0 <= val < 1e-20

    def test_sigma_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            NormalParams(0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            NormalParams(0.0, -2.0)

    def test_params_must_be_finite(self):
        with pytest.raises(InvalidParameterError):
            NormalParams(math.nan, 1.0)

    @pytest.mark.parametrize("args", [("0", 1.0), (None,), (0.0, "1"), (1j, 1.0)],
                             ids=["str-mu", "none-mu", "str-sigma", "complex-mu"])
    def test_params_must_be_numbers(self, args):
        with pytest.raises(InvalidParameterError, match="^mu and sigma must be numbers$"):
            NormalParams(*args)


class TestIdentities:
    def test_relationship_standard(self):
        lhs = loss_std(GRID) - closs_std(GRID) + GRID
        assert np.max(np.abs(lhs)) <= 1e-13

    def test_relationship_scaled(self):
        params = NormalParams(20.0, 5.0)
        xs = params.mu + params.sigma * GRID
        lhs = loss(xs, params) - closs(xs, params) + (xs - params.mu)
        assert np.max(np.abs(lhs)) <= 1e-13

    def test_reflection(self):
        assert np.max(np.abs(loss_std(GRID) - closs_std(-GRID))) <= 1e-13

    def test_automorphism(self):
        lhs = closs_std(GRID) - closs_std(-GRID) - GRID
        assert np.max(np.abs(lhs)) <= 1e-13

    def test_convexity_second_difference(self):
        h = 0.25
        second = closs_std(GRID - h) + closs_std(GRID + h) - 2.0 * closs_std(GRID)
        assert np.min(second) >= -1e-12

    def test_derivative_is_cdf(self):
        h = 1e-5
        xs = np.arange(-5.0, 5.0 + 1e-9, 0.05)
        deriv = (closs_std(xs + h) - closs_std(xs - h)) / (2.0 * h)
        assert np.max(np.abs(deriv - cdf(xs))) <= 1e-6

    @given(st.floats(min_value=-37.0, max_value=37.0),
           st.floats(min_value=1e-3, max_value=5.0))
    def test_convexity_property(self, x, h):
        assert closs_std(x - h) + closs_std(x + h) - 2.0 * closs_std(x) >= -1e-12

    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_automorphism_property(self, x):
        assert closs_std(x) - closs_std(-x) - x == approx(0.0, abs=1e-12)


class TestQuadrature:
    def test_polynomial_is_exact(self):
        assert adaptive_simpson(lambda t: t * t, 0.0, 3.0, 1e-12) == approx(9.0, abs=1e-12)

    def test_degenerate_interval(self):
        assert adaptive_simpson(math.sin, 2.0, 2.0, 1e-12) == 0.0

    def test_budget_exhaustion_carries_estimate(self):
        spike = lambda t: 1.0 / math.sqrt(abs(t) + 1e-14)
        with pytest.raises(QuadratureError) as err:
            adaptive_simpson(spike, -1.0, 1.0, 1e-14, max_depth=3)
        assert math.isfinite(err.value.estimate)
        assert err.value.achieved > 1e-14

    def test_tol_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            adaptive_simpson(math.sin, 0.0, 1.0, 0.0)


class TestGenericDistribution:
    def test_at_zero(self):
        assert closs_generic(0.0, std_normal_generic(), 1e-10) == approx(
            INV_SQRT_2PI, abs=1e-9)

    def test_matches_closed_form(self):
        dist = std_normal_generic()
        for x in (-3.0, -1.0, 0.25, 1.0, 2.5):
            assert closs_generic(x, dist, 1e-10) == approx(closs_std(x), abs=1e-9)

    def test_known_point(self):
        assert closs_generic(1.0, std_normal_generic(), 1e-10) == approx(
            CLOSS_AT_ONE, abs=1e-9)

    def test_steep_cdf_behaves_like_point_mass(self):
        c, s = 0.7, 1e-6

        def steep(t):
            z = (t - c) / s
            if z < -700.0:
                return 0.0
            if z > 700.0:
                return 1.0
            return 1.0 / (1.0 + math.exp(-z))

        dist = GenericDistribution(cdf=steep, mean=c)
        assert closs_generic(c + 1.0, dist, 1e-10) == approx(1.0, abs=1e-5)
        assert closs_generic(c, dist, 1e-10) == approx(0.0, abs=1e-5)
        assert closs_generic(c - 1.0, dist, 1e-10) == approx(0.0, abs=1e-5)

    def test_finite_support(self):
        uniform = GenericDistribution(
            cdf=lambda t: min(max(t, 0.0), 1.0),
            mean=0.5,
            support_low=0.0,
            support_high=1.0,
        )
        assert closs_generic(0.5, uniform, 1e-12) == approx(0.125, abs=1e-10)
        assert closs_generic(2.0, uniform, 1e-12) == approx(1.5, abs=1e-10)
        assert closs_generic(-0.5, uniform, 1e-12) == 0.0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            GenericDistribution(cdf=1.0, mean=0.0)
        with pytest.raises(InvalidParameterError):
            GenericDistribution(cdf=lambda t: t, mean=math.inf)
        with pytest.raises(InvalidParameterError):
            GenericDistribution(cdf=lambda t: t, mean=0.0,
                                support_low=1.0, support_high=0.0)
        with pytest.raises(DomainError):
            closs_generic(math.inf, std_normal_generic())
        with pytest.raises(InvalidParameterError):
            closs_generic(0.0, std_normal_generic(), tol=-1e-9)
