import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from pytest import approx

from losslin import (
    BoundReport,
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
    inv_cdf,
    loss,
    loss_std,
    phi,
    solve_minimax,
    to_json,
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


def _closs_std_reference(x):
    """The closed form phi(x) + x * Phi(x) from the public cdf and the plain
    density formula, saturated beyond |x| > 38."""
    arr = np.asarray(x, dtype=float)
    clipped = np.clip(arr, -38.0, 38.0)
    val = INV_SQRT_2PI * np.exp(-0.5 * clipped * clipped) + cdf(clipped) * clipped
    val = np.where(arr < -38.0, 0.0, val)
    return np.where(arr > 38.0, arr, val)


_FAR = [e * s for e in (38.0, 40.0, 1e200) for s in (1.0, -1.0)]
_FAR += [np.nextafter(e, t) for e in _FAR for t in (0.0, 2.0 * e)]
_KERNEL_XS = np.concatenate([np.linspace(-45.0, 45.0, 180_001), _FAR, [0.0, -0.0]])
_KERNEL_X = st.one_of(st.floats(-45.0, 45.0), st.floats(-1e200, 1e200), st.sampled_from(_FAR))
# (mu, sigma) scales from the standard one to |mu|/sigma = 1e8, and a mean of -0.0
_PIN_SCALE_ARGS = [(0.0, 1.0), (-12.3, 0.37), (20.0, 5.0), (1e6, 1e-2), (-0.0, 1.0)]
_PIN_SCALES = [NormalParams(mu, sigma) for mu, sigma in _PIN_SCALE_ARGS]
# Named by the constructor arguments: NormalParams stores a mean of -0.0 as 0.0,
# so its repr alone would not tell the last case from the first.
_PIN_SCALE_IDS = [f"NormalParams(mu={mu!r}, sigma={sigma!r})" for mu, sigma in _PIN_SCALE_ARGS]


class TestClossKernel:
    """The four loss functions on the fused Phi/phi kernel keep the bits of the closed form."""

    def test_bitwise_equal_to_closed_form(self):
        xs = _KERNEL_XS
        assert closs_std(xs).tobytes() == _closs_std_reference(xs).tobytes()
        assert loss_std(xs).tobytes() == _closs_std_reference(-xs).tobytes()

    @given(_KERNEL_X)
    def test_scalar_bitwise_equal_to_closed_form(self, x):
        want = _closs_std_reference(np.array([x]))
        assert closs_std(x) == want[0] and type(closs_std(x)) is float
        assert loss_std(-x) == want[0] and type(loss_std(-x)) is float

    @pytest.mark.parametrize("p", _PIN_SCALES, ids=_PIN_SCALE_IDS)
    def test_scaled_bitwise_equal_to_closed_form(self, p):
        xs = p.mu + p.sigma * _KERNEL_XS
        want = p.sigma * _closs_std_reference((xs - p.mu) / p.sigma)
        assert closs(xs, p).tobytes() == want.tobytes()
        want = p.sigma * _closs_std_reference(-(xs - p.mu) / p.sigma)
        assert loss(xs, p).tobytes() == want.tobytes()

    @given(_KERNEL_X, st.sampled_from(_PIN_SCALES))
    def test_scaled_scalar_bitwise_equal_to_closed_form(self, t, p):
        x = p.mu + p.sigma * t
        want = p.sigma * _closs_std_reference(np.array([(x - p.mu) / p.sigma]))
        assert closs(x, p) == want[0] and type(closs(x, p)) is float
        want = p.sigma * _closs_std_reference(np.array([-(x - p.mu) / p.sigma]))
        assert loss(x, p) == want[0] and type(loss(x, p)) is float


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

    @pytest.mark.parametrize("args", [
        ("0", 1.0), (None,), (0.0, "1"), (1j, 1.0), (True, 1.0), (0.0, True),
        (np.bool_(False), 1.0), (Decimal("1"), 1.0), (0.0, Decimal("1")), (Fraction(1, 3), 1.0),
    ], ids=["str-mu", "none-mu", "str-sigma", "complex-mu", "bool-mu", "bool-sigma",
            "numpy-bool-mu", "decimal-mu", "decimal-sigma", "fraction-mu"])
    def test_params_must_be_numbers(self, args):
        with pytest.raises(InvalidParameterError, match="^mu and sigma must be numbers$"):
            NormalParams(*args)

    @pytest.mark.parametrize("args", [(10**400, 1.0), (0.0, 10**400), (-(10**400), 1.0)])
    def test_int_beyond_float_range_is_not_finite(self, args):
        # no float holds it, so the number rule rejects it and says why
        with pytest.raises(InvalidParameterError,
                           match="^an int argument is beyond the float range$"):
            NormalParams(*args)

    @pytest.mark.parametrize("mu, sigma", [
        (1, 2), (np.float32(1.1), np.float32(0.3)), (np.int64(-3), 1.0), (np.array(1.5), 2.0),
        (-0.0, 1.0),
    ], ids=["int", "float32", "numpy-int", "array-mu", "negative-zero-mu"])
    def test_params_are_stored_as_floats(self, mu, sigma):
        params = NormalParams(mu, sigma)
        assert type(params.mu) is float and type(params.sigma) is float
        assert params == NormalParams(float(mu), float(sigma))
        # a mean of -0.0 is stored as 0.0
        assert repr(params) == f"NormalParams(mu={float(mu) + 0.0!r}, sigma={float(sigma)!r})"

    def test_float32_scale_gives_the_float_bundle(self):
        part = solve_minimax(4)
        narrow = BoundReport(part, NormalParams(np.float32(1.1), 1.0))
        wide = BoundReport(part, NormalParams(float(np.float32(1.1)), 1.0))
        assert type(narrow.lower.breakpoints[1]) is float
        assert to_json(narrow) == to_json(wide)

    @pytest.mark.parametrize("fn", [closs, loss])
    @pytest.mark.parametrize("x, mu, sigma", [
        (1e308, 0.0, 1e-300), (np.array([0.0, 1e308]), 0.0, 1e-300), (1e308, -1e308, 1.0),
    ], ids=["divide", "divide-array", "subtract"])
    def test_overflowing_standardised_argument(self, fn, x, mu, sigma):
        # pytest turns RuntimeWarning into an error, so a warning would fail this too
        with pytest.raises(DomainError, match=r"^\(x - mu\) / sigma overflows a double$"):
            fn(x, NormalParams(mu, sigma))


_PARAMS = NormalParams(1.0, 2.0)
_REAL_ARGUMENT_FNS = {
    "cdf": cdf, "phi": phi, "inv_cdf": inv_cdf, "closs_std": closs_std, "loss_std": loss_std,
    "closs": lambda x: closs(x, _PARAMS), "loss": lambda x: loss(x, _PARAMS),
}


@pytest.mark.parametrize("name", list(_REAL_ARGUMENT_FNS))
@pytest.mark.parametrize("x", ["0.5", True, np.array([True]), np.array([0.5 + 2j]), 0.5 + 0j,
                               np.array([0.5], dtype=object), Decimal("0.5")],
                         ids=["str", "bool", "bool-array", "complex-array", "complex",
                              "object-array", "decimal"])
def test_non_real_arguments_are_rejected(name, x):
    # the dtype is checked before any cast, which would warn on complex input
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^arguments must be int or float, got dtype "):
            _REAL_ARGUMENT_FNS[name](x)


_FLOAT_ARGUMENTS = [np.float32(0.25), np.float16(0.5), np.array([0.25, 0.75], dtype=np.float32),
                    [0.25, 0.5]]
_INT_ARGUMENTS = [2, np.int64(-1), np.uint8(3), np.array([-1, 2]), [0, 1]]


@pytest.mark.parametrize("name, x", [
    (name, x) for name in _REAL_ARGUMENT_FNS
    for x in _FLOAT_ARGUMENTS + (_INT_ARGUMENTS if name != "inv_cdf" else [])])
def test_int_and_float_arguments_are_accepted(name, x):
    got = _REAL_ARGUMENT_FNS[name](x)
    want = _REAL_ARGUMENT_FNS[name](np.asarray(x, dtype=float))
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


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

    def test_reversed_interval_is_rejected(self):
        with pytest.raises(DomainError, match="a <= b"):
            adaptive_simpson(lambda t: 1.0, 1.0, 0.0, 1e-6)

    def test_budget_exhaustion_carries_estimate(self):
        # a unit step at 1/3 never falls on a dyadic point, so the interval
        # holding it is still unresolved 48 halvings deep
        calls = []

        def step(t):
            calls.append(t)
            return float(t > 1.0 / 3.0)

        with pytest.raises(QuadratureError) as err:
            adaptive_simpson(step, 0.0, 1.0, 1e-12)
        assert len(calls) == 149
        # the estimate covers the whole integral, not the failing interval alone
        assert abs(err.value.estimate - 2.0 / 3.0) <= 1e-9
        assert err.value.achieved > 1e-12 / 2.0**48

    def test_tol_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            adaptive_simpson(math.sin, 0.0, 1.0, 0.0)


class TestGenericDistribution:
    def test_at_zero(self):
        assert closs_generic(0.0, std_normal_generic(), 1e-10) == approx(
            INV_SQRT_2PI, abs=1e-9)

    def test_matches_closed_form(self):
        dist = std_normal_generic()
        for x in (-3.0, -1.0, 0.25, 0.5, 1.0, 2.5):
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

    @pytest.mark.parametrize("x", [1e7, 1e8, 1e15, 1e300])
    def test_far_right_is_x_in_few_cdf_calls(self, x):
        calls = []

        def counted(t):
            calls.append(t)
            return 0.5 * math.erfc(-t / math.sqrt(2.0))

        assert closs_generic(x, GenericDistribution(cdf=counted, mean=0.0), 1e-10) == approx(
            x, abs=1e-10)
        assert len(calls) <= 50

    def test_far_left_is_zero(self):
        assert closs_generic(-1e300, std_normal_generic(), 1e-10) == 0.0

    @pytest.mark.parametrize("x", [-2.0, 0.0, 1.5, 50.0])
    def test_student_t3_matches_closed_form(self, x):
        # F(t) and closs(x) = x F(x) + (3 + x^2)/2 f(x) of Student's t with 3 degrees
        # of freedom; its |u|^-3 tails leave a truncation error of about 5e-10
        def t3_cdf(t):
            return 0.5 + (t / (math.sqrt(3.0) * (1.0 + t * t / 3.0))
                          + math.atan(t / math.sqrt(3.0))) / math.pi

        density = 6.0 * math.sqrt(3.0) / (math.pi * (3.0 + x * x) ** 2)
        exact = x * t3_cdf(x) + (3.0 + x * x) / 2.0 * density
        dist = GenericDistribution(cdf=t3_cdf, mean=0.0)
        assert closs_generic(x, dist, 1e-10) == approx(exact, abs=1e-8)

    @pytest.mark.parametrize("x", ["1", True, np.True_, 1 + 0j, None, [0.5], np.array([0.5]),
                                   [[0.5], [0.5, 1.0]], 10**400],
                             ids=["str", "bool", "np-bool", "complex", "none", "list", "array",
                                  "ragged", "huge-int"])
    def test_rejects_non_real_x(self, x):
        # the int/float rule of losslin.gaussian, not a raw TypeError; an int
        # that no float holds is named as such
        match = ("^an int argument is beyond the float range$" if type(x) is int else
                 "^closs_generic requires an int or float scalar x")
        with pytest.raises(DomainError, match=match):
            closs_generic(x, std_normal_generic())

    @pytest.mark.parametrize("x", [1, np.int64(1), np.float32(0.5), np.float64(0.5), np.array(0.5)],
                             ids=["int", "np-int64", "np-float32", "np-float64", "0-d"])
    def test_accepts_int_and_float_x(self, x):
        dist = std_normal_generic()
        got = closs_generic(x, dist, 1e-10)
        assert type(got) is float and got == closs_generic(float(x), dist, 1e-10)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            GenericDistribution(cdf=1.0, mean=0.0)
        with pytest.raises(InvalidParameterError):
            GenericDistribution(cdf=lambda t: t, mean=math.inf)
        with pytest.raises(InvalidParameterError):
            GenericDistribution(cdf=lambda t: t, mean=0.0,
                                support_low=1.0, support_high=0.0)
        with pytest.raises(InvalidParameterError, match="^mean must lie in the support$"):
            GenericDistribution(cdf=lambda t: t, mean=10.0, support_low=0.0, support_high=1.0)
        with pytest.raises(DomainError):
            closs_generic(math.inf, std_normal_generic())
        with pytest.raises(InvalidParameterError):
            closs_generic(0.0, std_normal_generic(), tol=-1e-9)
