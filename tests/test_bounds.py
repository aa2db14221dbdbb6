import dataclasses
import math
from bisect import bisect_right
from functools import cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from pytest import approx

from losslin import (
    BoundReport,
    BoundViolationError,
    DomainError,
    InvalidParameterError,
    NormalParams,
    Partition,
    PiecewiseLinear,
    STANDARD,
    breakpoint_errors,
    build_lower,
    build_report,
    build_upper_chord,
    cdf,
    closs,
    closs_std,
    evaluate,
    inv_cdf,
    loss,
    max_gap,
    phi,
    solve_minimax,
    to_json,
    to_lp_constraints,
)
from losslin import bounds as bounds_mod
from losslin import export_io
from losslin import gaussian as gaussian_mod

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

SCALES = (STANDARD, NormalParams(20.0, 5.0), NormalParams(-3.0, 0.25))


def pl_values(pl: PiecewiseLinear, xs: np.ndarray) -> np.ndarray:
    """Vectorized evaluation through the public segment data."""
    idx = np.searchsorted(np.asarray(pl.breakpoints), xs, side="right")
    return np.asarray(pl.slopes)[idx] * xs + np.asarray(pl.intercepts)[idx]


def exact_values(pl: PiecewiseLinear, xs):
    fn = closs if pl.target == "closs" else loss
    return fn(xs, pl.scale)


def grid_gap(pl: PiecewiseLinear, n: int) -> tuple[float, float]:
    """Reference for max_gap: the largest |bound - exact| over n uniform
    points spanning mu +- 8 sigma, extended to the outermost breakpoints.

    Returns (gap, spacing).  The gap's slope is at most 1, so the exact
    supremum exceeds this by at most half a spacing.
    """
    mu, sigma = pl.scale.mu, pl.scale.sigma
    lo = min(mu - 8.0 * sigma, pl.breakpoints[0])
    hi = max(mu + 8.0 * sigma, pl.breakpoints[-1])
    xs = np.linspace(lo, hi, n)
    gap = np.abs(pl_values(pl, xs) - exact_values(pl, xs))
    return float(np.max(gap)), float(xs[1] - xs[0])


@cache
def solved(n: int):
    return solve_minimax(n)


def lifted(pl: PiecewiseLinear, amount: float) -> PiecewiseLinear:
    """pl with every standard-scale intercept raised by amount."""
    return PiecewiseLinear(
        std_breakpoints=pl.std_breakpoints,
        std_slopes=pl.std_slopes,
        std_intercepts=tuple(c + amount for c in pl.std_intercepts),
        kind=pl.kind,
        target=pl.target,
        scale=pl.scale,
    )


class TestLowerBound:
    def test_single_region_is_positive_part(self):
        pl = build_lower(solve_minimax(1))
        assert pl.slopes == (0.0, 1.0)
        assert pl.intercepts == (0.0, 0.0)
        assert evaluate(pl, 3.0) == 3.0
        assert evaluate(pl, -5.0) == 0.0

    def test_four_region_segment_data(self):
        p = solve_minimax(4)
        pl = build_lower(p)
        assert pl.n_segments == 5
        assert pl.breakpoints == p.cond_means
        assert pl.slopes == approx(
            (0.0, 0.187555, 0.5, 0.812445, 1.0), abs=1e-6)
        # middle segment is the tangent at the zero boundary
        assert evaluate(pl, 0.0) == approx(0.3989422804014327, abs=1e-15)

    def test_tangency_at_region_boundaries(self):
        p = solve_minimax(5)
        pl = build_lower(p)
        for b in p.upper_limits[:-1]:
            assert evaluate(pl, b) == approx(closs_std(b), abs=1e-12)

    def test_continuity_at_breakpoints(self):
        pl = build_lower(solve_minimax(7))
        bp = np.asarray(pl.breakpoints)
        below = pl_values(pl, np.nextafter(bp, -np.inf))
        above = pl_values(pl, np.nextafter(bp, np.inf))
        assert np.max(np.abs(below - above)) <= 1e-10

    def test_scaled_breakpoints_and_gap(self):
        scale = NormalParams(20.0, 5.0)
        pl = build_lower(solve_minimax(4), scale)
        want = [20.0 + 5.0 * v for v in (-1.43535, -0.415223, 0.415223, 1.43535)]
        assert pl.breakpoints == approx(want, abs=1e-3)
        gap, _ = max_gap(pl, 100_000)
        assert gap == approx(5.0 * 0.0339052, abs=1e-5)

    def test_scaled_gap_at_each_breakpoint(self):
        scale = NormalParams(20.0, 5.0)
        p = solve_minimax(4)
        pl = build_lower(p, scale)
        for x in pl.breakpoints:
            gap = closs(x, scale) - evaluate(pl, x)
            assert gap == approx(scale.sigma * p.max_error, abs=1e-9)

    def test_loss_target_is_sheared_closs_target(self):
        scale = NormalParams(20.0, 5.0)
        p = solve_minimax(6)
        pl_c = build_lower(p, scale, "closs")
        pl_l = build_lower(p, scale, "loss")
        xs = np.linspace(-5.0, 45.0, 4001)
        diff = pl_values(pl_c, xs) - (xs - scale.mu) - pl_values(pl_l, xs)
        assert np.max(np.abs(diff)) <= 1e-12
        assert pl_l.slopes[0] == -1.0
        assert pl_l.slopes[-1] == 0.0


class TestShiftUpperBound:
    def test_single_region(self):
        pl = BoundReport(solve_minimax(1)).upper
        assert pl.slopes == (0.0, 1.0)
        assert pl.intercepts == approx((INV_SQRT_2PI, INV_SQRT_2PI), abs=1e-15)
        assert evaluate(pl, -10.0) == approx(0.398942, abs=1e-6)

    def test_touches_exact_at_conditional_means(self):
        p = solve_minimax(4)
        pl = BoundReport(p).upper
        for m in p.cond_means:
            assert evaluate(pl, m) == approx(closs_std(m), abs=1e-10)

    def test_breakpoints_inherited_from_lower(self):
        p = solve_minimax(4)
        assert BoundReport(p).upper.breakpoints == approx(
            (-1.43535, -0.415223, 0.415223, 1.43535), abs=1e-4)

    def test_gap_peaks_at_region_boundaries(self):
        p = solve_minimax(4)
        pl = BoundReport(p).upper
        for b in (*p.upper_limits[:-1],):
            gap = evaluate(pl, b) - closs_std(b)
            assert gap == approx(p.max_error, abs=1e-9)

    def test_equal_max_gap_with_lower(self):
        p = solve_minimax(6)
        g_lo, _ = max_gap(build_lower(p), 100_000)
        g_up, _ = max_gap(BoundReport(p).upper, 100_000)
        assert abs(g_lo - g_up) <= 1e-6

    def test_rejects_unequal_error_partition(self):
        skew = Partition.from_boundaries((-2.0, 0.0, 2.0))
        with pytest.raises(InvalidParameterError):
            BoundReport(skew)


class TestChordUpperBound:
    def test_single_breakpoint(self):
        pl = build_upper_chord((0.0,))
        assert pl.n_segments == 2
        assert pl.slopes == (0.0, 1.0)
        assert pl.intercepts == approx((INV_SQRT_2PI, INV_SQRT_2PI), abs=1e-15)

    def test_symmetric_chord_slope_is_half(self):
        pl = build_upper_chord((-1.0, 1.0))
        assert pl.slopes[1] == approx(0.5, abs=1e-15)

    def test_agrees_with_shift_on_minimax_means(self):
        p = solve_minimax(4)
        shift = BoundReport(p).upper
        chord = build_upper_chord(p.cond_means)
        xs = np.linspace(-9.0, 9.0, 20001)
        assert np.max(np.abs(pl_values(shift, xs) - pl_values(chord, xs))) <= 1e-4

    def test_agrees_with_shift_after_rescaling(self):
        scale = NormalParams(20.0, 5.0)
        p = solve_minimax(5)
        shift = BoundReport(p, scale).upper
        chord = build_upper_chord(shift.breakpoints, scale)
        xs = np.linspace(20.0 - 45.0, 20.0 + 45.0, 20001)
        assert np.max(np.abs(pl_values(shift, xs) - pl_values(chord, xs))) <= 1e-6

    def test_rejects_bad_breakpoints(self):
        with pytest.raises(InvalidParameterError):
            build_upper_chord(())
        with pytest.raises(InvalidParameterError):
            build_upper_chord((1.0, 0.0))
        with pytest.raises(InvalidParameterError):
            build_upper_chord((0.0, math.inf))

    @pytest.mark.parametrize("points", [["-1", "1"], [False, True], [np.True_], [None, 1.0],
                                        [1 + 0j, 2.0], [[0.0], [1.0]], 3, None],
                             ids=["str", "bool", "np-bool", "none", "complex", "nested",
                                  "scalar", "none-seq"])
    def test_rejects_non_numeric_breakpoints(self, points):
        # the dtype is checked before any cast, which would parse strings
        with pytest.raises(InvalidParameterError):
            build_upper_chord(points)

    @pytest.mark.parametrize("points", [[-1, 1], np.array([-1, 1], dtype=np.int8),
                                        iter([-1.0, 1.0]), np.array([-1.0, 1.0])],
                             ids=["int", "np-int8", "iterator", "ndarray"])
    def test_accepts_int_and_float_breakpoints(self, points):
        assert build_upper_chord(points) == build_upper_chord((-1.0, 1.0))

    def test_loss_target_is_sheared_closs_target(self):
        scale = NormalParams(-3.0, 0.25)
        nodes = (-3.4, -3.05, -2.8, -2.2)
        pl_c = build_upper_chord(nodes, scale, "closs")
        pl_l = build_upper_chord(nodes, scale, "loss")
        xs = np.linspace(-5.0, -1.0, 2001)
        diff = pl_values(pl_c, xs) - (xs - scale.mu) - pl_values(pl_l, xs)
        assert np.max(np.abs(diff)) <= 1e-12

    @pytest.mark.parametrize("target", ["closs", "loss"])
    def test_chord_is_the_constructor_of_its_closs_chain(self, target):
        scale, nodes = NormalParams(-3.0, 0.25), (-3.4, -3.05, -2.8, -2.2)
        t = (np.asarray(nodes) - scale.mu) / scale.sigma
        v = closs_std(t)
        alpha = np.diff(v) / np.diff(t)
        chain = PiecewiseLinear(t, (0.0, *alpha, 1.0),
                                (v[0], *(v[:-1] - alpha * t[:-1]), v[-1] - t[-1]),
                                "upper", target, scale)
        assert_same_bound(build_upper_chord(nodes, scale, target), chain)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=1,
                    max_size=8, unique=True))
    def test_arbitrary_chords_stay_above_exact(self, raw):
        nodes = sorted(raw)
        assume(all(b - a > 1e-6 for a, b in zip(nodes, nodes[1:])))
        pl = build_upper_chord(nodes)
        xs = np.linspace(-9.0, 9.0, 2001)
        assert np.min(pl_values(pl, xs) - closs_std(xs)) >= -1e-9


class TestErrorLocation:
    """An upper segment's gap peaks at the tangency abscissa inv_cdf(slope)."""

    def test_median_slope(self):
        assert inv_cdf(0.5) == approx(0.0, abs=1e-15)

    def test_round_trip_with_cdf(self):
        from losslin import cdf

        assert inv_cdf(cdf(0.886942)) == approx(0.886942, abs=1e-9)

    def test_interior_peaks_of_shifted_bound(self):
        # gap of the shifted bound is largest where the lower bound was
        # tangent: at the region boundaries, recovered from the slopes
        scale = NormalParams(20.0, 5.0)
        report = build_report(solve_minimax(4), scale)
        interior = [20.0 + 5.0 * inv_cdf(s) for s in report.upper.slopes[1:-1]]
        assert interior == approx(report.upper_error_locations[1:-1], abs=1e-9)

    def test_gap_is_maximal_within_each_chord_segment(self):
        pl = build_upper_chord((-1.7, -0.3, 0.9, 2.1))
        bp = pl.breakpoints
        for i, slope in enumerate(pl.slopes[1:-1], start=1):
            peak = inv_cdf(slope)
            assert bp[i - 1] < peak < bp[i]
            peak_gap = evaluate(pl, peak) - closs_std(peak)
            for x in np.linspace(bp[i - 1], bp[i], 101):
                assert evaluate(pl, x) - closs_std(x) <= peak_gap + 1e-12


class TestEvaluateAndMaxGap:
    def test_evaluate_rejects_non_finite(self):
        pl = build_lower(solve_minimax(2))
        with pytest.raises(DomainError):
            evaluate(pl, math.nan)

    @pytest.mark.parametrize("x", ["1", 1 + 0j, None, True, np.True_, np.array([1.0]), [1.0],
                                   [[1.0], [1.0, 2.0]], 10**400],
                             ids=["str", "complex", "none", "bool", "np-bool", "array",
                                  "list", "ragged", "huge-int"])
    def test_evaluate_rejects_non_real_scalars(self, x):
        pl = build_lower(solve_minimax(3))
        with pytest.raises(DomainError, match="int or float scalar"):
            evaluate(pl, x)
        with pytest.raises(DomainError, match="int or float scalar"):
            pl(x)

    @pytest.mark.parametrize("x, want", [(1, 1.0), (np.int64(-2), -2.0), (np.uint8(3), 3.0),
                                         (np.float64(0.25), 0.25), (np.array(0.5), 0.5)],
                             ids=["int", "np-int64", "np-uint8", "np-float64", "0-d"])
    def test_evaluate_accepts_int_and_float_scalars(self, x, want):
        pl = build_lower(solve_minimax(3))
        assert evaluate(pl, x) == evaluate(pl, want) == pl(x)

    @pytest.mark.parametrize("x", [np.float32(0.3), np.float64(0.3), np.int64(-2), np.uint8(3),
                                   np.array(np.float32(0.7))],
                             ids=["np-float32", "np-float64", "np-int64", "np-uint8", "0-d-float32"])
    def test_evaluate_returns_a_float_at_float_x(self, x):
        # x is read as float(x): no single-precision arithmetic, no numpy result
        pl = build_lower(solve_minimax(5))
        assert type(evaluate(pl, x)) is float and type(pl(x)) is float
        assert evaluate(pl, x) == evaluate(pl, float(x)) == pl(x)

    def test_float32_x_keeps_double_precision(self):
        pl = build_lower(solve_minimax(5))
        assert evaluate(pl, np.float32(0.3)) == 0.5664742940834702

    def test_max_gap_single_region(self):
        gap, x = max_gap(build_lower(solve_minimax(1)), 100_000)
        assert gap == approx(0.398942, abs=1e-6)
        assert x == approx(0.0, abs=1e-4)

    def test_max_gap_four_regions(self):
        gap, x = max_gap(build_lower(solve_minimax(4)), 100_000)
        assert gap == approx(0.0339052, abs=1e-5)
        peaks = (-1.43535, -0.415223, 0.415223, 1.43535)
        assert min(abs(x - v) for v in peaks) <= 1e-4

    def test_violation_detected(self):
        good = build_lower(solve_minimax(3))
        # push the chain upward so it crosses the exact function
        bad = lifted(good, 1e-3)
        with pytest.raises(BoundViolationError):
            max_gap(bad, 10_000)

    def test_sigma_proportionality(self):
        p = solve_minimax(5)
        g_std, _ = max_gap(build_lower(p), 100_000)
        for scale in SCALES[1:]:
            g, _ = max_gap(build_lower(p, scale), 100_000)
            assert g == approx(scale.sigma * g_std, rel=1e-8)


class TestExactCertificate:
    """max_gap evaluates the gap at its closed-form extremes."""

    @pytest.mark.parametrize("n", [1, 4, 10, 100, 1000, 10000])
    def test_equals_sigma_times_max_error(self, n):
        p = solved(n)
        for sigma in (0.01, 1.0, 5.0):
            for target in ("closs", "loss"):
                report = build_report(p, NormalParams(0.7, sigma), target)
                for pl in (report.lower, report.upper):
                    gap, _ = max_gap(pl)
                    assert abs(gap - sigma * p.max_error) <= 4e-15 * sigma

    @pytest.mark.parametrize("sigma", [0.01, 1.0])
    def test_rejects_lower_bound_lifted_by_twice_its_error(self, sigma):
        p = solved(10000)
        bad = lifted(build_lower(p, NormalParams(0.0, sigma)), 2.0 * p.max_error)
        with pytest.raises(BoundViolationError):
            max_gap(bad)

    @pytest.mark.parametrize("n", [1, 2, 5, 30])
    @pytest.mark.parametrize("scale", SCALES, ids=("std", "wide", "narrow"))
    @pytest.mark.parametrize("target", ("closs", "loss"))
    def test_location_attains_the_gap(self, n, scale, target):
        report = build_report(solved(n), scale, target)
        chord = build_upper_chord(report.lower.breakpoints, scale, target)
        mu, sigma = scale.mu, scale.sigma
        for pl in (report.lower, report.upper, chord):
            gap, x = max_gap(pl)
            if math.isinf(x):
                # the limit is reached exactly once the exact function saturates
                x = mu + math.copysign(40.0 * sigma, x)
            assert abs(evaluate(pl, x) - exact_values(pl, x)) == approx(
                gap, rel=1e-12, abs=1e-13 * (abs(mu) + sigma))

    def test_single_region_upper_peaks_at_infinity(self):
        p = solved(1)
        gap, x = max_gap(BoundReport(p).upper)
        assert math.isinf(x)
        assert gap == p.max_error

    def test_n_grid_is_ignored(self):
        pl = build_lower(solved(5))
        assert max_gap(pl, 99) == max_gap(pl, None) == max_gap(pl)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(("lower", "shift", "chord")),
    n=st.integers(min_value=1, max_value=12),
    nodes=st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=1,
                   max_size=8, unique=True),
    mu=st.floats(min_value=-10.0, max_value=10.0),
    sigma=st.floats(min_value=0.1, max_value=10.0),
    target=st.sampled_from(("closs", "loss")),
)
def test_exact_gap_agrees_with_grid_reference(kind, n, nodes, mu, sigma, target):
    scale = NormalParams(mu, sigma)
    if kind == "chord":
        nodes = sorted(nodes)
        assume(all(b - a > 1e-3 for a, b in zip(nodes, nodes[1:])))
        pl = build_upper_chord([mu + sigma * t for t in nodes], scale, target)
    elif kind == "lower":
        pl = build_lower(solved(n), scale, target)
    else:
        pl = BoundReport(solved(n), scale, target).upper
    gap, _ = max_gap(pl)
    grid, spacing = grid_gap(pl, 20_001)
    rounding = 1e-13 * (abs(mu) + sigma)
    assert grid <= gap + rounding
    assert gap <= grid + spacing / 2 + rounding


class TestSandwich:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("scale", SCALES, ids=("std", "wide", "narrow"))
    @pytest.mark.parametrize("target", ("closs", "loss"))
    def test_lower_below_exact_below_upper(self, n, scale, target):
        report = build_report(solve_minimax(n), scale, target)
        lo = min(scale.mu - 8.0 * scale.sigma, report.lower.breakpoints[0])
        hi = max(scale.mu + 8.0 * scale.sigma, report.lower.breakpoints[-1])
        xs = np.linspace(lo, hi, 20001)
        exact = exact_values(report.lower, xs)
        assert np.min(exact - pl_values(report.lower, xs)) >= -1e-9
        assert np.min(pl_values(report.upper, xs) - exact) >= -1e-9


class TestBoundReport:
    def test_fields(self):
        scale = NormalParams(20.0, 5.0)
        p = solve_minimax(4)
        report = build_report(p, scale)
        assert report.max_error == approx(5.0 * 0.0339052, abs=1e-5)
        assert report.lower.breakpoints == approx(
            tuple(20.0 + 5.0 * m for m in p.cond_means), abs=1e-12)
        assert report.upper_error_locations[0] == -math.inf
        assert report.upper_error_locations[-1] == math.inf
        assert report.upper_error_locations[1:-1] == approx(
            tuple(20.0 + 5.0 * b for b in p.upper_limits[:-1]), abs=1e-12)
        assert report.partition is p

    def test_invalid_scale(self):
        with pytest.raises(InvalidParameterError):
            build_report(solve_minimax(2), scale=(0.0, 1.0))

    def test_partition_scale_and_target_are_the_only_arguments(self):
        init = [f.name for f in dataclasses.fields(BoundReport) if f.init]
        assert init == ["partition", "scale", "target"]
        p, scale = solve_minimax(3), NormalParams(1.0, 2.0)
        report = BoundReport(p, scale, "loss")
        assert report == build_report(p, scale, "loss")
        assert BoundReport(p) == build_report(p, STANDARD, "closs")
        for name in ("lower", "upper", "max_error"):
            with pytest.raises(TypeError):
                BoundReport(p, scale, "loss", **{name: getattr(report, name)})

    @pytest.mark.parametrize("bad", [(0.0, math.inf), None], ids=["limits", "none"])
    def test_rejects_a_non_partition(self, bad):
        with pytest.raises(InvalidParameterError, match="Partition"):
            BoundReport(bad)

    @pytest.mark.parametrize("target", ["closs", "loss"])
    @pytest.mark.parametrize("n", [1, 2, 5, 30])
    def test_upper_is_the_shifted_bound(self, n, target):
        p, scale = solve_minimax(n), NormalParams(-3.5, 0.37)
        report = build_report(p, scale, target)
        assert report.upper == PiecewiseLinear(
            std_breakpoints=report.lower.std_breakpoints,
            std_slopes=report.lower.std_slopes,
            std_intercepts=tuple(c + p.max_error for c in report.lower.std_intercepts),
            kind="upper", target=target, scale=scale)

    def test_reuses_the_partition_statistics(self, region_stats_calls):
        p = solve_minimax(7)
        del region_stats_calls[:]
        build_report(p, NormalParams(1.0, 2.0), "loss")
        assert region_stats_calls == []

    def test_rejects_a_partition_without_equal_errors(self):
        skew = Partition.from_boundaries((-2.0, 0.0, 2.0))
        with pytest.raises(InvalidParameterError, match="equal-error"):
            build_report(skew)

    @pytest.mark.parametrize("n", [1000, 10000])
    def test_rejects_a_spread_below_the_absolute_limit(self, n):
        # one boundary moved 30% of the way to its neighbour spreads the errors
        # by ~0.71 max_error, which stays below 1e-6 from N ~ 792 on
        b = list(solve_minimax(n).upper_limits[:-1])
        i = n // 2 - 1
        b[i] += 0.3 * (b[i + 1] - b[i])
        part = Partition.from_boundaries(b)
        assert breakpoint_errors(part).spread < 1e-6
        with pytest.raises(InvalidParameterError, match="equal-error"):
            BoundReport(part)

    def test_accepts_every_solved_partition(self):
        # the largest relative float spread of a solved partition is ~1.3e-7
        for n in [*range(1, 301), *range(301, 10002, 97), 10000, 10001]:
            part = solve_minimax(n)
            assert BoundReport(part).partition is part

    def test_accepts_the_largest_solved_partition(self):
        part = solve_minimax(30000)
        assert breakpoint_errors(part).spread <= 0.2 * 1e-5 * part.max_error
        report = BoundReport(part)
        for bound in (report.lower, report.upper):
            assert max_gap(bound)[0] == approx(report.max_error, rel=1e-6)

    @pytest.mark.filterwarnings("error")
    def test_partitions_past_the_cap_are_not_solved(self):
        # past 10**5 regions the float breakpoint errors no longer resolve the
        # spread, so such partitions are refused before any report is built
        with pytest.raises(InvalidParameterError, match=r"\(the limit is 30000\)$"):
            solve_minimax(10**5)


def tangent_chain(p: Partition):
    """Standard closs slopes and intercepts of p's tangent chain, for either
    target, computed here from the boundaries."""
    b = np.asarray(p.upper_limits[:-1])
    slopes = np.concatenate(([0.0], cdf(b), [1.0]))
    intercepts = np.concatenate(([0.0], phi(b), [0.0]))
    return slopes, intercepts


def assert_same_bound(view: PiecewiseLinear, ref: PiecewiseLinear):
    assert view == ref and hash(view) == hash(ref) and repr(view) == repr(ref)
    for name in ("std_breakpoints", "std_slopes", "std_intercepts", "kind", "target",
                 "scale", "breakpoints", "slopes", "intercepts", "n_segments"):
        assert getattr(view, name) == getattr(ref, name), name
    assert all(type(v) is float for v in view.breakpoints + view.slopes + view.intercepts)


class TestStandardChainViews:
    """A report's bounds are views of a chain validated once per partition;
    every check on the scale, the target and the partition still runs per call."""

    @settings(max_examples=80, deadline=None)
    @given(
        segments=st.one_of(st.integers(min_value=2, max_value=40), st.just(1000)),
        mu=st.one_of(st.floats(min_value=1e-3, max_value=1e6),
                     st.floats(min_value=-1e6, max_value=-1e-3),
                     st.sampled_from((0.0, -0.0))),
        sigma=st.floats(min_value=1e-3, max_value=1e3),
        target=st.sampled_from(("closs", "loss")),
    )
    def test_views_equal_the_validating_construction(self, segments, mu, sigma, target):
        p = solved(segments - 1)
        scale = NormalParams(mu, sigma)
        slopes, intercepts = tangent_chain(p)
        report = BoundReport(p, scale, target)
        assert_same_bound(report.lower, PiecewiseLinear(
            p.cond_means, slopes, intercepts, "lower", target, scale))
        assert_same_bound(report.upper, PiecewiseLinear(
            p.cond_means, slopes, intercepts + p.max_error, "upper", target, scale))
        assert_same_bound(build_lower(p, scale, target), report.lower)

    @pytest.mark.parametrize("target", ["closs", "loss"])
    def test_sheared_slopes_are_rejected(self, target):
        p = solved(6)
        slopes, intercepts = tangent_chain(p)
        with pytest.raises(InvalidParameterError, match="asymptotes"):
            PiecewiseLinear(p.cond_means, slopes - 1.0, intercepts, "lower", target, STANDARD)

    @pytest.mark.parametrize("target", ["closs", "loss"])
    def test_the_upper_bound_shares_the_lower_rows(self, target):
        report = BoundReport(solved(6), NormalParams(2.0, 3.0), target)
        assert report.upper.breakpoints is report.lower.breakpoints
        assert report.upper.slopes is report.lower.slopes
        assert report.upper.intercepts != report.lower.intercepts

    @pytest.mark.parametrize("segments", [2, 10, 1000])
    def test_the_cache_leaves_partition_identity_alone(self, segments):
        fresh = Partition(solved(segments - 1).upper_limits)
        twin = Partition(fresh.upper_limits)
        before = hash(fresh), repr(fresh)
        report = BoundReport(fresh, NormalParams(3.0, 2.0), "loss")
        to_json(report), to_lp_constraints(report)
        # reading twin._chain or twin._texts would build it, so look in the instance dicts
        derived = {"_chain", "_texts"}
        assert derived <= set(vars(fresh)) and not derived & set(vars(twin))
        assert (hash(fresh), repr(fresh)) == before
        assert fresh == twin and hash(fresh) == hash(twin) and repr(fresh) == repr(twin)

    @pytest.mark.parametrize("source", [1, 2, 3, 40, 1000, 10001, 30000, (-2.0, 0.0, 2.0),
                                        (-37.0, -1.0, 0.0, 2.0, 5.0), (-1e-9, 1e-9)])
    def test_the_unchecked_chain_passes_the_validating_constructor(self, source):
        # views skip the constructor's checks; the partition's chain passes them,
        # whether the partition is solved or has unequal errors, and its slopes
        # and tangents are the public cdf and phi of the limits, bit for bit
        p = solved(source) if isinstance(source, int) else Partition.from_boundaries(source)
        spread, slopes, tangents, raised = p._chain
        assert spread == breakpoint_errors(p).spread
        want_slopes, want_tangents = tangent_chain(p)
        assert np.asarray(slopes).tobytes() == want_slopes.tobytes()
        assert np.asarray(tangents).tobytes() == want_tangents.tobytes()
        assert_same_bound(build_lower(p), PiecewiseLinear(
            p.cond_means, slopes, tangents, "lower", "closs", STANDARD))
        upper = PiecewiseLinear(p.cond_means, slopes, raised, "upper", "closs", STANDARD)
        assert upper.std_intercepts == tuple(c + p.max_error for c in tangents)

    @pytest.mark.filterwarnings("error")
    def test_a_report_evaluates_no_kernel_once_its_partition_exists(self, monkeypatch):
        # the chain reads Phi and phi at the limits from the certifying pass
        parts = [solve_minimax(n) for n in (1, 2, 30, 1000, 30000)]
        built = Partition.from_boundaries((-37.0, -1.0, 0.0, 2.0, 5.0))

        def no_kernel(*args):
            raise AssertionError("a kernel was evaluated")
        monkeypatch.setattr(gaussian_mod, "_cdf_phi", no_kernel)
        for target in ("closs", "loss"):
            for p in parts:
                report = BoundReport(p, NormalParams(3.0, 2.0), target)
                to_json(report), to_lp_constraints(report)
            build_lower(built, NormalParams(3.0, 2.0), target)

    @pytest.mark.parametrize("target", ["closs", "loss"])
    def test_unequal_errors_are_rejected_on_every_report(self, target):
        skew = Partition.from_boundaries((-1.0, 0.0, 1.0))
        build_lower(skew, STANDARD, target)
        for _ in range(2):
            with pytest.raises(InvalidParameterError, match="equal-error"):
                BoundReport(skew, STANDARD, target)

    @pytest.mark.parametrize("target", ["closs", "loss"])
    def test_a_non_finite_domain_scale_is_rejected_on_every_report(self, target):
        p = Partition(solved(9).upper_limits)
        huge = NormalParams(1e308, 1e308)
        for _ in range(2):
            with pytest.raises(InvalidParameterError, match="must be finite"):
                BoundReport(p, huge, target)
            with pytest.raises(InvalidParameterError, match="must be finite"):
                build_lower(p, huge, target)
        report = BoundReport(p, STANDARD, target)
        slopes, intercepts = tangent_chain(p)
        assert_same_bound(report.lower, PiecewiseLinear(
            p.cond_means, slopes, intercepts, "lower", target, STANDARD))
        assert max_gap(report.lower)[0] == approx(p.max_error, rel=1e-12)

    def test_bad_arguments_are_rejected_after_the_chain_is_built(self):
        p = Partition(solved(5).upper_limits)
        BoundReport(p)
        for _ in range(2):
            with pytest.raises(InvalidParameterError, match="^unknown target 'gain'$"):
                BoundReport(p, STANDARD, "gain")
            with pytest.raises(InvalidParameterError, match="^unknown target 'gain'$"):
                build_lower(p, STANDARD, "gain")
            with pytest.raises(InvalidParameterError, match="NormalParams"):
                BoundReport(p, (0.0, 1.0))
            with pytest.raises(InvalidParameterError, match="NormalParams"):
                build_lower(p, (0.0, 1.0))
            with pytest.raises(InvalidParameterError, match="Partition"):
                BoundReport(p.upper_limits)

    def test_a_report_checks_its_scale_and_target_once(self, monkeypatch):
        # the upper view takes the scale and target its lower view has just checked
        checked, check = [], bounds_mod._check_view
        monkeypatch.setattr(bounds_mod, "_check_view",
                            lambda *args: checked.append(args) or check(*args))
        p, scale = solved(5), NormalParams(20.0, 5.0)
        BoundReport(p, scale, "loss")
        assert checked == [(scale, "loss")]
        build_lower(p, scale, "closs")
        assert checked == [(scale, "loss"), (scale, "closs")]


class TestPiecewiseLinearValidation:
    def test_discontinuous_chain_rejected(self):
        with pytest.raises(InvalidParameterError):
            PiecewiseLinear(
                std_breakpoints=(0.0,),
                std_slopes=(0.0, 1.0),
                std_intercepts=(0.0, 0.5),
                kind="lower",
                target="closs",
                scale=STANDARD,
            )

    def test_non_monotone_lower_slopes_rejected(self):
        with pytest.raises(InvalidParameterError):
            PiecewiseLinear(
                std_breakpoints=(0.0, 1.0),
                std_slopes=(0.0, 0.0, 1.0),
                std_intercepts=(0.0, 0.0, -1.0),
                kind="lower",
                target="closs",
                scale=STANDARD,
            )

    def test_wrong_extreme_slopes_rejected(self):
        with pytest.raises(InvalidParameterError):
            PiecewiseLinear(
                std_breakpoints=(0.0,),
                std_slopes=(0.1, 1.0),
                std_intercepts=(0.0, 0.0),
                kind="lower",
                target="closs",
                scale=STANDARD,
            )

    def test_scale_must_be_normal_params(self):
        with pytest.raises(InvalidParameterError, match="NormalParams"):
            PiecewiseLinear((0.0,), (0.0, 1.0), (0.0, 0.0), "lower", "closs", (0.0, 1.0))

    def test_overflowing_domain_view_rejected(self):
        with pytest.raises(InvalidParameterError, match="intercepts must be finite"):
            build_report(solve_minimax(4), NormalParams(1e308, 1e308))

    def test_non_finite_slope_rejected(self):
        with pytest.raises(InvalidParameterError, match="intercepts must be finite"):
            PiecewiseLinear((-1.0, 1.0), (0.0, math.nan, 1.0), (0.0, 0.1, 0.0),
                            "upper", "closs", STANDARD)

    @pytest.mark.parametrize("field", range(3), ids=["breakpoints", "slopes", "intercepts"])
    @pytest.mark.parametrize("bad", [lambda v: tuple(map(str, v)), lambda v: (None,) * len(v),
                                     lambda v: tuple(complex(x) for x in v),
                                     lambda v: tuple(bool(x) for x in v),
                                     lambda v: tuple((x,) for x in v)],
                             ids=["str", "none", "complex", "bool", "nested"])
    def test_non_numeric_std_fields_rejected(self, field, bad):
        args = [(-1.0, 1.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
        args[field] = bad(args[field])
        with pytest.raises(InvalidParameterError, match="int or float numbers"):
            PiecewiseLinear(*args, "upper", "closs", STANDARD)

    def test_int_std_fields_accepted(self):
        pl = PiecewiseLinear((-1, 1), (0, 0, 1), (0, 0, -1), "upper", "closs", STANDARD)
        assert pl == PiecewiseLinear((-1.0, 1.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0),
                                     "upper", "closs", STANDARD)
        assert all(type(v) is float for v in pl.std_breakpoints + pl.std_slopes)

    @pytest.mark.parametrize("seq", [list, np.array], ids=["list", "ndarray"])
    def test_std_fields_are_normalised(self, seq):
        args = ((-0.5, 0.5), (0.0, 0.5, 1.0), (0.0, 0.25, 0.0))
        ref = PiecewiseLinear(*args, "lower", "closs", STANDARD)
        pl = PiecewiseLinear(*map(seq, args), "lower", "closs", STANDARD)
        assert pl == ref and hash(pl) == hash(ref)
        for name in ("std_breakpoints", "std_slopes", "std_intercepts"):
            values = getattr(pl, name)
            assert type(values) is tuple
            assert all(type(v) is float for v in values)
        assert pl.slopes is pl.std_slopes

    def test_unknown_kind_and_target(self):
        with pytest.raises(InvalidParameterError):
            PiecewiseLinear((), (1.0,), (0.0,), "middle", "closs", STANDARD)
        with pytest.raises(InvalidParameterError):
            PiecewiseLinear((), (1.0,), (0.0,), "lower", "gain", STANDARD)

    @pytest.mark.parametrize("build", [
        lambda target: build_lower(solve_minimax(3), STANDARD, target),
        lambda target: build_upper_chord((-1.0, 1.0), STANDARD, target),
    ], ids=["lower", "chord"])
    def test_builders_reject_an_unknown_target(self, build):
        with pytest.raises(InvalidParameterError, match="^unknown target 'foo'$"):
            build("foo")


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    mu=st.floats(min_value=-10.0, max_value=10.0),
    sigma=st.floats(min_value=0.1, max_value=10.0),
    target=st.sampled_from(("closs", "loss")),
)
def test_sandwich_property(n, mu, sigma, target):
    scale = NormalParams(mu, sigma)
    report = build_report(solve_minimax(n), scale, target)
    xs = np.linspace(mu - 8.0 * sigma, mu + 8.0 * sigma, 2001)
    exact = exact_values(report.lower, xs)
    assert np.min(exact - pl_values(report.lower, xs)) >= -1e-9
    assert np.min(pl_values(report.upper, xs) - exact) >= -1e-9


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    mu=st.floats(min_value=-100.0, max_value=100.0),
    sigma=st.floats(min_value=0.01, max_value=100.0),
    target=st.sampled_from(("closs", "loss")),
    kind=st.sampled_from(("lower", "upper")),
    t=st.floats(min_value=-6.0, max_value=6.0),
)
def test_scalar_evaluate_is_the_active_domain_segment(n, mu, sigma, target, kind, t):
    scale = NormalParams(mu, sigma)
    report = build_report(solve_minimax(n), scale, target)
    pl = report.lower if kind == "lower" else report.upper
    x = mu + sigma * t
    i = bisect_right(pl.breakpoints, x)
    assert evaluate(pl, x) == pl.slopes[i] * x + pl.intercepts[i]
    assert evaluate(pl, x) == export_io._evaluate_array(pl, np.array([x]))[0]


def test_scalar_and_array_evaluate_agree_within_an_ulp_of_each_breakpoint():
    # the output pin's scales, a mean of -0.0 and a far one; both paths pick the
    # segment by the domain breakpoints, and a breakpoint belongs to the segment
    # on its right
    scales = [NormalParams(mu, sigma) for mu, sigma in
              ((0.0, 1.0), (-12.3, 0.37), (20.0, 5.0), (1e6, 1e-2), (-0.0, 1.0), (1e8, 1.0))]
    for n in (2, 5, 30, 999):
        part = solve_minimax(n)
        for scale in scales:
            for target in ("closs", "loss"):
                report = build_report(part, scale, target)
                for pl in (report.lower, report.upper):
                    bp = np.asarray(pl.breakpoints)
                    xs = np.concatenate((np.nextafter(bp, -np.inf), bp, np.nextafter(bp, np.inf)))
                    scalar = [evaluate(pl, x) for x in xs.tolist()]
                    assert scalar == export_io._evaluate_array(pl, xs).tolist(), (n, scale, target)
