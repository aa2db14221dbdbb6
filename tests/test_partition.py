import copy
import dataclasses
import logging
import math
import pickle
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from pytest import approx

from losslin import (
    BoundReport,
    BreakpointErrors,
    GenericDistribution,
    InvalidParameterError,
    Partition,
    SolverError,
    breakpoint_errors,
    cdf,
    inv_cdf,
    parameter_table,
    phi,
    solve_minimax,
    to_json,
)
from losslin import gaussian as gaussian_mod
from losslin import loss_core as loss_core_mod
from losslin import partition as partition_mod

from reference_table import REFERENCE

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class TestDegenerateCases:
    def test_single_region(self):
        p = solve_minimax(1)
        assert p.upper_limits == (math.inf,)
        assert p.masses == (1.0,)
        assert p.cond_means == (0.0,)
        assert p.max_error == approx(INV_SQRT_2PI, abs=1e-12)

    def test_two_regions_split_at_zero(self):
        p = solve_minimax(2)
        assert p.upper_limits[0] == 0.0
        assert p.masses == approx((0.5, 0.5), abs=1e-14)
        assert p.cond_means[1] == approx(math.sqrt(2.0 / math.pi), abs=1e-12)
        assert p.max_error == approx(0.120656, abs=1e-6)

    @pytest.mark.parametrize("n", [1, 2])
    def test_closed_forms_need_no_solve(self, n, monkeypatch):
        # e_1 - e_2 at the exact boundary 0 is -2.8e-17, so a Newton solve
        # to the smallest tolerance would stall on rounding
        want = solve_minimax(n)
        monkeypatch.setattr(partition_mod, "_TOL", 5e-324)
        assert solve_minimax(n) == want

    def test_invalid_region_count(self):
        with pytest.raises(InvalidParameterError):
            solve_minimax(0)
        with pytest.raises(InvalidParameterError):
            solve_minimax(-3)

    @pytest.mark.parametrize("n", [True, False, 5.0, "5", None])
    def test_non_integer_region_count_rejected(self, n):
        with pytest.raises(InvalidParameterError,
                           match="^n_regions must be a positive integer, got "):
            solve_minimax(n)

    def test_numpy_integer_region_count_accepted(self):
        p = solve_minimax(np.int64(5))
        assert p == solve_minimax(5) and p.n_regions == 5


class TestBreakpointErrors:
    @pytest.mark.parametrize("values, message", [
        ("x", "^values must be a flat sequence"), ((True,), "^values must be a flat sequence"),
        (((0.1,),), "^values must be a flat sequence"), ((), "^need at least one"),
        ((math.nan,), "^breakpoint errors must be finite$"),
        ((0.1, math.inf), "^breakpoint errors must be finite$"),
    ], ids=["str", "bool", "nested", "empty", "nan", "inf"])
    def test_record_rejects_what_is_not_a_number_list(self, values, message):
        with pytest.raises(InvalidParameterError, match=message):
            BreakpointErrors(values)

    def test_record_stores_floats(self):
        errs = BreakpointErrors([1, np.float32(0.5)])
        assert errs.values == (1.0, 0.5) and all(type(v) is float for v in errs.values)
        assert errs.spread == 0.5

    def test_single_region_error(self):
        p = solve_minimax(1)
        assert breakpoint_errors(p).values[0] == approx(0.398942, abs=1e-6)

    def test_four_regions_all_equal(self):
        p = solve_minimax(4)
        for i in range(1, 5):
            assert breakpoint_errors(p).values[i - 1] == approx(0.0339052, abs=1e-6)

    def test_skewed_partition_unequal(self):
        p = Partition.from_boundaries((-2.0, 0.0, 2.0))
        errs = breakpoint_errors(p).values
        assert all(e >= 0.0 for e in errs)
        assert abs(errs[0] - errs[1]) > 1e-3

    def test_skewed_partition_against_quadrature(self):
        # independent error route: quadrature closs at the breakpoint
        # minus direct segment arithmetic
        from losslin import closs_generic

        dist = GenericDistribution(
            cdf=lambda t: 0.5 * math.erfc(-t / math.sqrt(2.0)), mean=0.0)
        p = Partition.from_boundaries((-2.0, 0.0, 2.0))
        for i in (1, 2, 3, 4):
            b = p.upper_limits[i - 1]
            m = p.cond_means[i - 1]
            seg = m if math.isinf(b) else cdf(b) * m + phi(b)
            oracle = closs_generic(m, dist, 1e-10) - seg
            assert breakpoint_errors(p).values[i - 1] == approx(oracle, abs=1e-8)


class TestSolvedPartitions:
    @pytest.mark.parametrize("segments", sorted(REFERENCE))
    def test_regression_against_reference(self, segments):
        ref = REFERENCE[segments]
        p = solve_minimax(segments - 1)
        assert p.max_error == approx(ref["error"], abs=1e-4)
        for got, want in zip(p.upper_limits, ref["b"]):
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert got == approx(want, abs=1e-4)
        assert p.masses == approx(tuple(ref["p"]), abs=1e-4)
        assert p.cond_means == approx(tuple(ref["m"]), abs=1e-4)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_equal_error_certificate(self, n):
        assert breakpoint_errors(solve_minimax(n)).spread <= 1e-8

    @pytest.mark.parametrize("n", range(2, 11))
    def test_boundary_symmetry(self, n):
        b = solve_minimax(n).upper_limits
        for i in range(n - 1):
            assert b[i] == approx(-b[n - 2 - i], abs=1e-9)

    @pytest.mark.parametrize("n", range(2, 11, 2))
    def test_even_region_count_has_zero_boundary(self, n):
        b = solve_minimax(n).upper_limits
        assert b[n // 2 - 1] == 0.0

    @pytest.mark.parametrize("n", range(3, 11, 2))
    def test_odd_region_count_has_zero_middle_mean(self, n):
        m = solve_minimax(n).cond_means
        assert m[n // 2] == approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_mass_and_mean_preservation(self, n):
        p = solve_minimax(n)
        assert sum(p.masses) == approx(1.0, abs=1e-12)
        assert np.dot(p.masses, p.cond_means) == approx(0.0, abs=1e-10)

    def test_errors_shrink_with_more_regions(self):
        errors = [solve_minimax(n).max_error for n in range(1, 11)]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_cross_check_against_high_precision_root(self):
        # independent solve of the equal-error conditions with mpmath
        mpmath.mp.dps = 30

        def error_at(interior, i):
            bs = list(interior) + [mpmath.inf]
            a = -mpmath.inf if i == 0 else bs[i - 1]
            b = bs[i]
            pa = mpmath.ncdf(a) if mpmath.isfinite(a) else mpmath.mpf(0)
            pb = mpmath.ncdf(b) if mpmath.isfinite(b) else mpmath.mpf(1)
            fa = mpmath.npdf(a) if mpmath.isfinite(a) else mpmath.mpf(0)
            fb = mpmath.npdf(b) if mpmath.isfinite(b) else mpmath.mpf(0)
            m = (fa - fb) / (pb - pa)
            exact = mpmath.npdf(m) + mpmath.ncdf(m) * m
            return exact - (pb * m + fb)

        def residual(u):
            interior = [u, mpmath.mpf(0), -u]
            return error_at(interior, 0) - error_at(interior, 1)

        root = mpmath.findroot(residual, mpmath.mpf("-0.9"))
        got = solve_minimax(4).upper_limits[0]
        assert got == approx(float(root), abs=1e-9)

    @pytest.mark.parametrize("n", [13, 20, 29])
    def test_larger_systems_converge(self, n):
        p = solve_minimax(n)
        assert breakpoint_errors(p).spread <= 1e-8

    @pytest.mark.parametrize("n, bound", [(10, 1e-13), (100, 1e-11), (1000, 1e-9)])
    def test_true_relative_spread(self, n, bound):
        # the breakpoint errors of the solved float boundaries, evaluated
        # with 34 digits: the spread that floats cannot see in themselves
        upper = solve_minimax(n).upper_limits
        with mpmath.workdps(34):
            b = [mpmath.mpf(x) for x in upper[:-1]]
            big = [mpmath.mpf(0), *map(mpmath.ncdf, b), mpmath.mpf(1)]
            small = [mpmath.mpf(0), *map(mpmath.npdf, b), mpmath.mpf(0)]
            e = []
            for i in range(n):
                m = (small[i] - small[i + 1]) / (big[i + 1] - big[i])
                e.append(mpmath.npdf(m) + m * mpmath.ncdf(m) - (big[i + 1] * m + small[i + 1]))
            assert (max(e) - min(e)) / max(e) <= bound

    @pytest.mark.parametrize("n", [10, 100, 1000, 10**4, 3 * 10**4])
    def test_error_follows_the_minimax_law(self, n):
        # equal errors eps space the boundaries like N(0, 2), so eps N^2 tends
        # to sqrt(pi/8) with a correction of about 0.44/N; the correction reads
        # 0.38 to 0.45 up to the cap and breaks past 10**5, where the float
        # breakpoint errors stop resolving the spread (0.069 at 10**5)
        eps = solve_minimax(n).max_error
        assert 0.35 <= (math.sqrt(math.pi / 8.0) - eps * n * n) * n <= 0.47


class TestNewtonSystem:
    """The exact symmetry-reduced Newton system behind solve_minimax."""

    @staticmethod
    def perturbed_point(n):
        rows = (n + 1) // 2
        neg = np.asarray(inv_cdf(np.arange(1, rows) / n))
        gaps = np.diff(np.concatenate((neg, [0.0])))
        rng = np.random.default_rng(n)
        return neg + 0.2 * gaps * rng.uniform(-1.0, 1.0, neg.size)

    @staticmethod
    def dense(diag, sub, mid):
        n = diag.size
        jac = np.zeros((n + 1, n))
        jac[np.arange(n), np.arange(n)] = diag
        jac[np.arange(1, n), np.arange(n - 1)] = sub[1:]
        jac[n, n - 1] = mid
        return jac

    @pytest.mark.parametrize("n", [3, 4, 7, 8, 101])
    def test_jacobian_matches_central_differences(self, n):
        neg = self.perturbed_point(n)
        rows = (n + 1) // 2
        stats = partition_mod._symmetric_stats(neg, n)
        analytic = self.dense(*partition_mod._reduced_jacobian(stats, n))
        h = 1e-6
        numeric = np.empty_like(analytic)
        for j in range(neg.size):
            bump = np.zeros_like(neg)
            bump[j] = h
            e_hi = partition_mod._symmetric_stats(neg + bump, n)[3][:rows]
            e_lo = partition_mod._symmetric_stats(neg - bump, n)[3][:rows]
            numeric[:, j] = (e_hi - e_lo) / (2.0 * h)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 101, 1000, 2001])
    def test_newton_step_solves_the_bordered_system(self, n):
        neg = self.perturbed_point(n)
        stats = partition_mod._symmetric_stats(neg, n)
        diag, sub, mid = partition_mod._reduced_jacobian(stats, n)
        r = np.random.default_rng(0).normal(size=diag.size + 1)
        delta, d_eps = partition_mod._newton_step(diag, sub, mid, r)
        bordered = np.hstack((self.dense(diag, sub, mid), -np.ones((diag.size + 1, 1))))
        want = np.linalg.solve(bordered, -r)
        np.testing.assert_allclose(np.append(delta, d_eps), want, rtol=1e-9)

    @pytest.mark.parametrize("rho, n", [(1e-3, 100), (1.0 - 1e-12, 500)],
                             ids=["near-0", "near-1"])
    def test_newton_step_scan_at_extreme_ratios(self, rho, n):
        # rho_i = -sub_i / diag_i; 1e-3 over 99 factors leaves P_n at 1e-297
        rng = np.random.default_rng(n)
        diag = rng.uniform(0.5, 2.0, n)
        sub = np.concatenate(([0.0], -rho * diag[1:]))
        r = rng.normal(size=n + 1)
        delta, d_eps = partition_mod._newton_step(diag, sub, -1.0, r)
        bordered = np.hstack((self.dense(diag, sub, -1.0), -np.ones((n + 1, 1))))
        want = np.linalg.solve(bordered, -r)
        np.testing.assert_allclose(np.append(delta, d_eps), want, rtol=1e-9,
                                   atol=1e-12 * np.max(np.abs(want)))

    def test_underflowing_scan_fails_the_solve_at_the_start(self, monkeypatch):
        # ratios of 1e-300 underflow the scan's running product: the step
        # is rejected and the start is reported as the best point
        n = 7
        start = partition_mod._start(n)
        jacobian = partition_mod._reduced_jacobian

        def tiny_ratios(stats, n_regions):
            diag, sub, mid = jacobian(stats, n_regions)
            return diag, 1e-300 * sub, mid

        monkeypatch.setattr(partition_mod, "_reduced_jacobian", tiny_ratios)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match=" after 0 Newton steps: ") as info:
                solve_minimax(n)
        assert np.array_equal(info.value.best, partition_mod._symmetric_limits(start, n)[:-1])

    @staticmethod
    def counting_kernels(monkeypatch):
        """Names of the gaussian and loss_core kernels called, in call order."""
        calls = []

        def counting(module, name):
            kernel = getattr(module, name)

            def wrapper(*args):
                calls.append(name)
                return kernel(*args)
            monkeypatch.setattr(module, name, wrapper)

        for name in ("cdf", "phi", "_cdf_phi"):
            counting(gaussian_mod, name)
        counting(loss_core_mod, "closs_std")
        return calls

    def test_jacobian_reuses_the_boundary_values(self, monkeypatch):
        # dPhi and phi(b) come from the residual pass; nothing is evaluated
        stats = partition_mod._symmetric_stats(self.perturbed_point(101), 101)
        calls = self.counting_kernels(monkeypatch)
        partition_mod._reduced_jacobian(stats, 101)
        assert calls == []

    def test_region_stats_evaluates_each_kernel_twice(self, monkeypatch):
        # one fused Phi/phi call on the boundaries, one on the conditional
        # means, and no call of the public cdf or phi
        upper = partition_mod._symmetric_limits(self.perturbed_point(101), 101)
        calls = self.counting_kernels(monkeypatch)
        partition_mod._region_stats(upper)
        assert calls == ["_cdf_phi", "_cdf_phi"]
        assert not hasattr(partition_mod, "closs_std")

    @pytest.mark.parametrize("n", [3, 4, 7, 100, 1000, 10000])
    def test_start_is_hastings_shifted_quantiles(self, n):
        # the start is the N(0, 2) quantiles at the index shifted by the fitted
        # delta(k, N), bit for bit, evaluated term by term in the same order
        c = partition_mod._START_FIT
        k = np.arange(1.0, (n + 1) // 2)
        u, w, g = k / (n + 0.3), 1.0 / (k + 0.5), 1.0 / math.log(n)
        r = np.sqrt(u)
        delta = ((c[0] + g * (c[11] + g * c[14])) + u * ((c[1] + g * (c[12] + g * c[15]))
                                                       + u * (c[2] + u * c[3]))
                 + r * ((c[4] + g * c[13]) + u * c[5])
                 + w * (((c[6] + g * c[9]) + w * ((c[7] + g * c[10]) + w * c[8]))
                        + u * c[16] + r * c[17]))
        want = math.sqrt(2.0) * np.asarray(inv_cdf((k + delta) / (n + 0.3)))
        start = partition_mod._start(n)
        assert start.shape == want.shape and np.all(start < 0.0)
        assert np.array_equal(start, want)
        # the shifts stay near the 0.15 of the plain shifted quantiles
        assert np.all((0.13 < delta) & (delta < 0.18)), delta

    def test_residual_evaluations_stay_constant_in_n(self, region_stats_calls, caplog):
        # every size to 300, then strides up to the cap of 30000 regions, and
        # sizes whose polish reads a larger residual than the point it polishes
        # on x86-64 with numpy 2: each takes at most one of its 4 Newton steps
        # (_MAX_STEPS) from the fitted start, two below 10, then the polish
        sizes = [*range(3, 301), *range(301, 10000, 199), 589, 607, 4024, 4038, 10000,
                 *range(10001, 30001, 997), 30000]
        with caplog.at_level(logging.DEBUG, logger="losslin.partition"):
            for n in sizes:
                del region_stats_calls[:]
                spread = breakpoint_errors(solve_minimax(n)).spread
                _, iterations, passes, _ = caplog.records[-1].args
                assert spread <= 1e-10 and iterations <= (1 if n >= 10 else 2), \
                    (n, spread, iterations)
                assert passes == iterations + 2 == len(region_stats_calls), (n, passes)
                # half passes and the full polishing pass: four full passes would be 4N
                assert sum(region_stats_calls) <= 2.5 * n + 2, (n, region_stats_calls)

    @pytest.mark.parametrize("n", [100, 300, 1000, 3000, 10000])
    def test_polished_residual_reaches_rounding_level(self, n):
        e = np.asarray(breakpoint_errors(solve_minimax(n)).values)
        assert partition_mod._full_residual_norm(e) <= 1e-13

    @pytest.mark.parametrize("n", [589, 607, 4024, 4038, 7978])
    def test_polish_is_kept_where_the_reduced_residual_rises(self, n):
        # at rounding level a residual no longer ranks points: at 589 and 607
        # the polished point reads a larger full residual than the converged
        # one it polishes, on x86-64 with numpy 2, and is kept (at 4024, 4038
        # and 7978 the start of 0.15 shifts gave such points)
        e = np.asarray(breakpoint_errors(solve_minimax(n)).values)
        assert partition_mod._full_residual_norm(e) <= 1e-14

    def test_cli_cap_size_converges(self):
        # --segments is capped at 10001, i.e. 10000 regions
        p = solve_minimax(10000)
        assert breakpoint_errors(p).spread <= 1e-10

    def test_stall_reports_best_point(self, monkeypatch):
        # a tolerance below rounding cannot be met within the 4 Newton steps;
        # the message names N, the steps, the residual reached and the tolerance
        want = solve_minimax(7).upper_limits[:-1]
        monkeypatch.setattr(partition_mod, "_TOL", 1e-30)
        with pytest.raises(SolverError,
                           match=r"^no certified partition of 7 regions after 4 Newton steps: "
                                 r"residual \S+, tol 1e-30$") as info:
            solve_minimax(7)
        assert f"residual {info.value.residual:.3g}," in str(info.value)
        best = np.asarray(info.value.best)
        assert best.size == 6 and np.all(np.diff(best) > 0)
        assert best == approx(want, abs=1e-9)
        assert 0.0 <= info.value.residual <= 1e-10

    def test_stall_is_found_without_step_halving(self, region_stats_calls, monkeypatch):
        # the start and 4 full steps over the 4 distinct regions, then one full
        # pass for the last point's residual: no shorter steps are tried
        monkeypatch.setattr(partition_mod, "_TOL", 1e-30)
        with pytest.raises(SolverError, match=" after 4 Newton steps: "):
            solve_minimax(7)
        assert region_stats_calls == [4, 4, 4, 4, 4, 7]

    @pytest.mark.parametrize("bad_step", [
        lambda neg: [neg[1] - neg[0], neg[0] - neg[1], 0.0],
        lambda neg: [neg[1] - neg[0], 0.0, 0.0],
        lambda neg: [-40.0 - neg[0], -39.0 - neg[1], 0.0],
        lambda neg: [0.0, 0.0, 1.0 - neg[2]],
        lambda neg: [0.0, math.inf, 0.0],
    ], ids=["crossed", "equal", "massless-tail", "past-zero", "infinite"])
    def test_unusable_step_is_rejected(self, monkeypatch, bad_step):
        # the first Newton step leaves the ordered, positive-mass points;
        # the solver rejects it and reports the starting point as the best
        n = 7
        start = partition_mod._start(n)
        monkeypatch.setattr(partition_mod, "_newton_step",
                            lambda *args: (np.asarray(bad_step(start)), 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match=" after 0 Newton steps: ") as info:
                solve_minimax(n)
        assert np.array_equal(info.value.best, partition_mod._symmetric_limits(start, n)[:-1])
        e = partition_mod._symmetric_stats(start, n)[3]
        assert info.value.residual == partition_mod._full_residual_norm(e)


class TestHalfPasses:
    """The Newton passes evaluate the ceil(N/2) symmetry-distinct regions only."""

    SIZES = [*range(3, 401), *range(401, 10002, 293), 10001]

    def test_prefix_matches_the_full_pass(self):
        # the first h limits give those regions' stats, and Phi and phi at
        # -inf, b_1..b_h, bit for bit as the full pass does
        for n in self.SIZES:
            upper = np.asarray(solve_minimax(n).upper_limits)
            h = (n + 1) // 2
            full = partition_mod._region_stats(upper)
            head = partition_mod._region_stats(upper[:h])
            for whole, first in zip(full, head):
                assert np.array_equal(whole[:first.size], first), n

    @pytest.mark.parametrize("n", [3, 4, 7, 8, 101, 1000])
    def test_half_pass_gives_the_full_jacobian(self, n):
        neg = partition_mod._start(n)
        half = partition_mod._symmetric_stats(neg, n, half=True)
        full = partition_mod._symmetric_stats(neg, n)
        assert half[0].size == (n + 1) // 2 and half[0][-1] == (-neg[-1] if n % 2 else 0.0)
        for got, want in zip(partition_mod._reduced_jacobian(half, n),
                             partition_mod._reduced_jacobian(full, n)):
            assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("n", [589, 999, 4024, 4038])
    def test_completed_partition_is_its_own_construction(self, n):
        # at 589 the polished point has the larger residual on x86-64 with
        # numpy 2; it is kept and its full pass certifies it
        p = solve_minimax(n)
        q = Partition(p.upper_limits)
        assert q == p and _bits(q._errors) == _bits(p._errors)

    @pytest.mark.parametrize("polish, kept", [
        (lambda delta, d_eps: (0.0 * delta, 0.0), True),
        (lambda delta, d_eps: (delta + math.nan, math.nan), False),
    ], ids=["zero", "nan"])
    def test_polish_is_kept_unless_unusable(self, monkeypatch, region_stats_calls, caplog,
                                            polish, kept):
        # a zero polishing step does not lower the residual, but its point is
        # usable: it is kept and its full pass certifies it.  A NaN point is
        # not evaluated: the solve fails with the converged point and its
        # residual, from one full pass.  The start of 300 regions takes one
        # Newton step to meet the tolerance, so the polish is the second step
        want = solve_minimax(300).upper_limits[:-1]
        del region_stats_calls[:]
        step, steps = partition_mod._newton_step, []

        def replaced(*args):
            steps.append(args)
            delta, d_eps = step(*args)
            return polish(delta, d_eps) if len(steps) == 2 else (delta, d_eps)
        monkeypatch.setattr(partition_mod, "_newton_step", replaced)
        if kept:
            with caplog.at_level(logging.DEBUG, logger="losslin"):
                p = solve_minimax(300)
            assert caplog.records[-1].args[1:3] == (1, 3)
            assert region_stats_calls == [150, 150, 300]
            q = Partition(p.upper_limits)
            assert q == p and _bits(q._errors) == _bits(p._errors)
            assert breakpoint_errors(p).spread <= 1e-10
        else:
            with pytest.raises(SolverError,
                               match=r"^no certified partition of 300 regions after 1 Newton"
                                     r" steps: residual \S+, tol 1e-10$") as info:
                solve_minimax(300)
            assert region_stats_calls == [150, 150, 300]
            best = Partition.from_boundaries(info.value.best)
            assert info.value.residual == partition_mod._full_residual_norm(best._errors) <= 1e-10
            assert best.upper_limits[:-1] == approx(want, abs=1e-8)


class TestOnePass:
    """Construction derives and certifies a partition's statistics from one
    pass over its boundaries; the breakpoint errors are then reused."""

    def test_direct_construction_checks_a_fresh_computation(self, region_stats_calls):
        p = Partition.from_boundaries((-1.0, 0.0, 1.0, 2.5))
        assert region_stats_calls == [5]
        del region_stats_calls[:]
        q = Partition(p.upper_limits)
        assert region_stats_calls == [5]
        assert q == p
        assert breakpoint_errors(q).values == breakpoint_errors(p).values

    def test_breakpoint_errors_reuse_the_certified_errors(self, region_stats_calls):
        p = solve_minimax(6)
        del region_stats_calls[:]
        values = breakpoint_errors(p).values
        assert region_stats_calls == []
        e = partition_mod._region_stats(np.asarray(p.upper_limits))[2]
        assert values == tuple(e.tolist())

    def test_solve_minimax_1000_makes_2_stats_calls(self, region_stats_calls):
        # the start over the 500 symmetry-distinct regions meets the tolerance,
        # then the polishing step over all 1000, whose statistics certify the result
        solve_minimax(1000)
        assert region_stats_calls == [500, 1000]

    def test_masses_and_cond_means_are_built_on_first_read(self):
        # the solve keeps the certified arrays; the tuples are built on first
        # read, bit for bit their tolist(), and leave the identity alone
        p = solve_minimax(1000)
        assert not {"masses", "cond_means"} & set(vars(p))
        fields, identity = dataclasses.fields(p), (hash(p), repr(p))
        pickled, copied = pickle.dumps(p), copy.copy(p)
        masses, cond_means = p.masses, p.cond_means
        assert {"masses", "cond_means"} <= set(vars(p))
        assert p.masses is masses and p.cond_means is cond_means
        assert type(masses) is tuple and {type(v) for v in masses + cond_means} == {float}
        assert _bits(masses) == _bits(p._masses.tolist())
        assert _bits(cond_means) == _bits(p._cond_means.tolist())
        assert not p._masses.flags.writeable and not p._cond_means.flags.writeable
        assert (dataclasses.fields(p), hash(p), repr(p)) == (fields, *identity)
        assert pickle.dumps(p) == pickled and copy.copy(p) == copied == p
        assert Partition(p.upper_limits) == p
        assert pickle.loads(pickled).masses == masses and copied.cond_means == cond_means

    def test_errors_field_stays_out_of_init_and_repr(self):
        p = solve_minimax(3)
        assert "errors" not in repr(p)
        assert [f.name for f in dataclasses.fields(Partition) if f.init] == ["upper_limits"]
        with pytest.raises(TypeError):
            Partition(p.upper_limits, _errors=breakpoint_errors(p).values)

    def test_repr_is_the_constructor_call(self):
        p = Partition.from_boundaries((-1.0, 0.0, 1.0))
        assert repr(p) == f"Partition(upper_limits={p.upper_limits!r})"

    @pytest.mark.parametrize("copy_of", [lambda p: pickle.loads(pickle.dumps(p)),
                                         copy.deepcopy, copy.copy],
                             ids=["pickle", "deepcopy", "copy"])
    def test_copies_are_certified_afresh(self, copy_of):
        # a copy is rebuilt from its upper limits: read-only arrays, no cache
        p = solve_minimax(1000)
        text = to_json(BoundReport(p))
        assert {"_chain", "_texts"} <= set(vars(p))
        q = copy_of(p)
        assert q == p and not {"_chain", "_texts"} & set(vars(q))
        assert not any(a.flags.writeable for a in (q._errors, q._big_phi, q._small_phi))
        assert _bits(q._errors) == _bits(p._errors)
        assert to_json(BoundReport(q)) == text


def _region_stats_reference(upper):
    """Region statistics composed from the public cdf and phi: Phi and phi on
    the limits, the lower limit -inf included, with Phi = 0, 1 and phi = 0 at
    -inf and +inf, then on the conditional means; those on the limits are returned."""
    limits = np.concatenate(([-math.inf], upper))
    finite = np.isfinite(limits)
    big_phi, small_phi = np.where(limits > 0.0, 1.0, 0.0), np.zeros(limits.size)
    big_phi[finite], small_phi[finite] = cdf(limits[finite]), phi(limits[finite])
    p = big_phi[1:] - big_phi[:-1]
    if not np.all(p > 0.0):
        return None
    m = (small_phi[:-1] - small_phi[1:]) / p
    d_phi = cdf(m) - big_phi[1:]
    e = (phi(m) - small_phi[1:]) + m * d_phi
    return p, m, e, d_phi, big_phi, small_phi


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


class TestFusedRegionStats:
    """_region_stats on the fused kernel keeps the bits of its reference."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(-8.0, 8.0), st.floats(-41.0, 41.0),
                              st.sampled_from([-38.0, -37.9, -37.5, 37.5, 38.0, 39.0, -40.0])),
                    max_size=60, unique=True))
    def test_bitwise_equal_to_reference(self, interior):
        upper = np.array(sorted(interior) + [math.inf])
        got, want = partition_mod._region_stats(upper), _region_stats_reference(upper)
        assert (got is None) == (want is None)
        if want is not None:
            assert [_bits(v) for v in got] == [_bits(v) for v in want]

    def test_non_finite_conditional_mean_rejects_the_point(self, monkeypatch):
        # the kernel takes finite input only; masses of 5e-324 under a density
        # of 0.24 overflow the first conditional mean to -inf
        kernel = gaussian_mod._cdf_phi

        def subnormal_masses(x, big, small):
            kernel(x, big, small)
            big[:] = 5e-324 * np.arange(1, x.size + 1)
            return big, small
        monkeypatch.setattr(gaussian_mod, "_cdf_phi", subnormal_masses)
        with np.errstate(over="ignore"):
            assert partition_mod._region_stats(np.array([-1.0, 1.0, math.inf])) is None

    def test_solves_match_the_reference_solves(self, monkeypatch):
        # every size to 300, then a stride up to the CLI cap of 10000 regions
        sizes = [*range(1, 301), *range(301, 10000, 199), 10000]
        fused = {n: solve_minimax(n) for n in sizes}
        monkeypatch.setattr(partition_mod, "_region_stats", _region_stats_reference)
        fields = ("upper_limits", "masses", "cond_means", "max_error", "_errors")
        for n in sizes:
            part, want = fused[n], solve_minimax(n)
            assert part == want, n
            assert [_bits(getattr(part, f)) for f in fields] == \
                [_bits(getattr(want, f)) for f in fields], n


class TestSolveLog:
    """solve_minimax logs one DEBUG record per solve on the losslin logger."""

    @staticmethod
    def solve_records(caplog, n):
        with caplog.at_level(logging.DEBUG, logger="losslin"):
            part = solve_minimax(n)
        records = [r for r in caplog.records if r.name == "losslin.partition"]
        assert len(records) == 1 and records[0].levelno == logging.DEBUG
        return part, records[0]

    def test_record_counts_the_solve(self, caplog, region_stats_calls):
        # 589 keeps a polishing point whose residual rises (TestHalfPasses);
        # the start of 1000 regions meets the tolerance without a Newton step
        for size, steps in ((7, 2), (589, 1), (1000, 0)):
            caplog.clear()
            del region_stats_calls[:]
            part, record = self.solve_records(caplog, size)
            n, iterations, passes, residual = record.args
            assert (n, iterations) == (size, steps)
            assert passes == len(region_stats_calls) == iterations + 2
            e = np.asarray(breakpoint_errors(part).values)
            assert residual == partition_mod._full_residual_norm(e) <= 1e-13
            assert record.getMessage().startswith(
                f"solve_minimax n_regions={size} iterations={steps} passes={steps + 2} residual=")

    @pytest.mark.parametrize("n", [1, 2])
    def test_closed_forms_log_no_iterations(self, caplog, n):
        _, record = self.solve_records(caplog, n)
        assert record.args == (n, 0, 1, 0.0)

    def test_silent_by_default(self, capfd):
        handlers = logging.getLogger("losslin").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)
        solve_minimax(7)
        assert capfd.readouterr() == ("", "")


class TestParameterTable:
    def test_row_counts(self):
        rows = parameter_table(6)
        assert [p.n_regions for p in rows] == [1, 2, 3, 4, 5]

    def test_matches_individual_solves(self):
        for row, n in zip(parameter_table(5), range(1, 5)):
            assert row.upper_limits == solve_minimax(n).upper_limits

    def test_requires_at_least_two_segments(self):
        with pytest.raises(InvalidParameterError):
            parameter_table(1)

    @pytest.mark.parametrize("max_segments", [True, 3.0, "3"])
    def test_non_integer_segment_count_rejected(self, max_segments):
        with pytest.raises(InvalidParameterError,
                           match="^max_segments must be an integer >= 2$"):
            parameter_table(max_segments)

    def test_numpy_integer_segment_count_accepted(self):
        assert parameter_table(np.int64(3)) == parameter_table(3)


class TestPartitionValidation:
    def test_duplicate_boundary_rejected(self):
        with pytest.raises(InvalidParameterError):
            Partition.from_boundaries((0.5, 0.5))

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(InvalidParameterError):
            Partition.from_boundaries((1.0, -1.0))

    # masses, conditional means and max_error are derived, never passed in
    def test_tampered_masses_rejected(self):
        p = solve_minimax(3)
        with pytest.raises(TypeError):
            Partition(p.upper_limits, masses=tuple(v + 1e-6 for v in p.masses))
        with pytest.raises(TypeError):
            Partition(p.upper_limits, cond_means=p.cond_means)

    def test_tampered_max_error_rejected(self):
        p = solve_minimax(3)
        with pytest.raises(TypeError):
            Partition(p.upper_limits, max_error=p.max_error + 1e-3)

    # 1e200 squares past the float range inside phi: that must not warn
    @pytest.mark.parametrize("interior", [(-40.0, -39.0), (39.0, 40.0), (0.0, 1e-300),
                                          (1e200,), (-1e200,)])
    def test_degenerate_region_rejected(self, interior):
        with pytest.raises(InvalidParameterError,
                           match="^boundaries produce an empty or degenerate region$"):
            Partition.from_boundaries(interior)

    @pytest.mark.parametrize("convert", [list, np.array], ids=["list", "ndarray"])
    def test_upper_limits_are_normalised(self, convert):
        p = Partition.from_boundaries((-1.0, 0.5))
        q = Partition(convert([-1.0, 0.5, math.inf]))
        assert q == p and hash(q) == hash(p)
        assert type(q.upper_limits) is tuple
        assert all(type(b) is float for b in q.upper_limits)

    @pytest.mark.parametrize("upper", [5.0, None, "ab", [[0.0, math.inf]], [1j, math.inf],
                                       ["0", "inf"]],
                             ids=["float", "none", "str", "nested", "complex", "numeric-str"])
    def test_malformed_upper_limits_rejected(self, upper):
        with pytest.raises(InvalidParameterError,
                           match="^upper limits must be a flat sequence of numbers$"):
            Partition(upper)

    @pytest.mark.parametrize("interior", [[[0.0]], [[-1.0], [1.0]], ["a"]],
                             ids=["nested", "ragged", "str"])
    def test_malformed_interior_boundaries_rejected(self, interior):
        with pytest.raises(InvalidParameterError,
                           match="^upper limits must be a flat sequence of numbers$"):
            Partition.from_boundaries(interior)

    @pytest.mark.parametrize("interior", [5.0, None])
    def test_non_iterable_interior_boundaries_rejected(self, interior):
        with pytest.raises(InvalidParameterError,
                           match="^interior boundaries must be a sequence of numbers$"):
            Partition.from_boundaries(interior)

    # each statistic is perturbed after _region_stats so that exactly one check fails
    CERTIFICATE_CHECKS = {
        "degenerate": (lambda p, m: None, "boundaries produce an empty or degenerate region"),
        "masses": (lambda p, m: (p * (1.0 + 1e-9), m), "region masses must sum to one"),
        "order": (lambda p, m: (p, m[[0, 2, 1, 3]]),
                  "conditional means must be strictly increasing"),
        "inside": (lambda p, m: (p, np.concatenate(([-0.9], m[1:]))),
                   "each conditional mean must lie inside its region"),
        "zero-mean": (lambda p, m: (p, m + 1e-6),
                      "the discretisation must preserve the zero mean"),
    }

    @staticmethod
    def perturb_stats(monkeypatch, perturb):
        region_stats = partition_mod._region_stats

        def perturbed(upper, **kwargs):
            p, m, *rest = region_stats(upper, **kwargs)
            changed = perturb(p, m)
            return None if changed is None else (*changed, *rest)
        monkeypatch.setattr(partition_mod, "_region_stats", perturbed)

    @pytest.mark.parametrize("check", CERTIFICATE_CHECKS)
    def test_construction_certificate_fires(self, monkeypatch, check):
        perturb, message = self.CERTIFICATE_CHECKS[check]
        self.perturb_stats(monkeypatch, perturb)
        with pytest.raises(InvalidParameterError, match=f"^{message}$"):
            Partition.from_boundaries((-1.0, 0.0, 1.0))

    @pytest.mark.parametrize("check", ["masses", "zero-mean"])
    def test_solver_result_passes_the_same_certificate(self, monkeypatch, check):
        # slightly perturbed statistics still converge; the certificate of
        # the last accepted pass then rejects them as construction does
        perturb, message = self.CERTIFICATE_CHECKS[check]
        self.perturb_stats(monkeypatch, perturb)
        with pytest.raises(InvalidParameterError, match=f"^{message}$"):
            solve_minimax(7)

    def test_lower_limits_view(self):
        p = solve_minimax(3)
        assert p.lower_limits == (-math.inf,) + p.upper_limits[:-1]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1,
                max_size=6, unique=True))
def test_partition_invariants_from_arbitrary_boundaries(raw):
    interior = sorted(raw)
    assume(all(b - a > 1e-3 for a, b in zip(interior, interior[1:])))
    p = Partition.from_boundaries(interior)
    assert sum(p.masses) == approx(1.0, abs=1e-12)
    assert all(v > 0.0 for v in p.masses)
    assert all(a < m < b for a, m, b in
               zip(p.lower_limits, p.cond_means, p.upper_limits))
    assert min(breakpoint_errors(p).values) >= 0.0
