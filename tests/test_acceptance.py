"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (run with -s to see
them on success) and asserts at the stated tolerance.
"""

import json
import math
import time

import numpy as np

from losslin import (
    BoundReport,
    NormalParams,
    STANDARD,
    adaptive_simpson,
    breakpoint_errors,
    build_lower,
    build_report,
    build_upper_chord,
    cdf,
    closs_generic,
    closs_std,
    from_json,
    GenericDistribution,
    loss_std,
    max_gap,
    solve_minimax,
    to_json,
    to_lp_constraints,
)
from losslin.cli import main as cli_main

from reference_table import REFERENCE
from test_bounds import pl_values
from test_export_io import lp_sections, parse_epigraph_row


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_parameter_table_regression(capsys):
    start = time.perf_counter()
    rc = cli_main(["table", "--max", "11"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out

    rows = {}
    for line in out.splitlines()[1:]:
        cells = line.split(",")
        rows.setdefault(int(cells[0]), {"error": float(cells[1])})[cells[2]] = [
            float("inf") if c == "inf" else float(c) for c in cells[3:] if c
        ]
    worst = 0.0
    for segments, ref in REFERENCE.items():
        got = rows[segments]
        worst = max(worst, abs(got["error"] - ref["error"]))
        for key in ("b", "p", "m"):
            for g, w in zip(got[key], ref[key]):
                if math.isfinite(w):
                    worst = max(worst, abs(g - w))
                else:
                    worst = max(worst, 0.0 if math.isinf(g) else math.inf)
    ok = rc == 0 and set(rows) == set(REFERENCE) and worst <= 1e-4 and elapsed < 10.0
    with capsys.disabled():
        _report(1, ok, f"max deviation {worst:.2e}, solve time {elapsed:.2f}s")


def test_criterion_02_single_region_classical_bound(capsys):
    part = solve_minimax(1)
    gap, at = max_gap(build_lower(part), 100_000)
    ok = (abs(part.max_error - 0.398942) <= 1e-6
          and abs(gap - part.max_error) <= 1e-9
          and abs(at) <= 1e-4)
    with capsys.disabled():
        _report(2, ok, f"max error {part.max_error:.9f} at {at:.2e}")


def test_criterion_03_five_segment_bound(capsys):
    part = solve_minimax(4)
    err_ok = abs(part.max_error - 0.0339052) <= 1e-6
    _, at = max_gap(build_lower(part), 100_000)
    peaks = (-1.43535, -0.415223, 0.415223, 1.43535)
    peak_ok = min(abs(at - v) for v in peaks) <= 1e-4
    bounds_ref = (-0.886942, 0.0, 0.886942)
    bound_ok = all(abs(g - w) <= 1e-4
                   for g, w in zip(part.upper_limits[:-1], bounds_ref))
    ok = err_ok and peak_ok and bound_ok
    with capsys.disabled():
        _report(3, ok, f"error {part.max_error:.7f}, argmax {at:.6f}, "
                       f"boundaries {[round(b, 6) for b in part.upper_limits[:-1]]}")


def test_criterion_04_scaling_law(capsys):
    scale = NormalParams(20.0, 5.0)
    pl = build_lower(solve_minimax(4), scale)
    gap, _ = max_gap(pl, 100_000)
    gap_ok = abs(gap - 0.169526) <= 1e-5
    want = [20.0 + 5.0 * v for v in (-1.43535, -0.415223, 0.415223, 1.43535)]
    bp_ok = all(abs(g - w) <= 1e-3 for g, w in zip(pl.breakpoints, want))
    ok = gap_ok and bp_ok
    with capsys.disabled():
        _report(4, ok, f"max gap {gap:.7f}, breakpoints "
                       f"{[round(b, 4) for b in pl.breakpoints]}")


def test_criterion_05_sandwich_suite(capsys):
    scales = (STANDARD, NormalParams(20.0, 5.0), NormalParams(-3.0, 0.25))
    worst = math.inf
    for n in range(1, 11):
        part = solve_minimax(n)
        for scale in scales:
            for target in ("closs", "loss"):
                report = build_report(part, scale, target)
                lo = min(scale.mu - 8.0 * scale.sigma, report.lower.breakpoints[0])
                hi = max(scale.mu + 8.0 * scale.sigma, report.lower.breakpoints[-1])
                xs = np.linspace(lo, hi, 100_000)
                exact = pl_exact(report, xs)
                worst = min(worst,
                            float(np.min(exact - pl_values(report.lower, xs))),
                            float(np.min(pl_values(report.upper, xs) - exact)))
    ok = worst >= -1e-9
    with capsys.disabled():
        _report(5, ok, f"worst signed margin {worst:.3e} over 60 grids")


def pl_exact(report, xs):
    from losslin import closs, loss

    fn = closs if report.lower.target == "closs" else loss
    return fn(xs, report.lower.scale)


def test_criterion_06_oracle_equivalence(capsys):
    sqrt2 = math.sqrt(2.0)
    erfc_cdf = lambda t: 0.5 * math.erfc(-t / sqrt2)
    survival = lambda t: 0.5 * math.erfc(t / sqrt2)
    dist = GenericDistribution(cdf=erfc_cdf, mean=0.0)
    xs = np.linspace(-5.0, 5.0, 1001)
    worst_c = max(abs(closs_generic(float(x), dist, 1e-10) - closs_std(float(x)))
                  for x in xs)
    worst_l = max(abs(adaptive_simpson(survival, float(x), 40.0, 1e-10)
                      - loss_std(float(x)))
                  for x in xs)
    ok = worst_c <= 1e-8 and worst_l <= 1e-8
    with capsys.disabled():
        _report(6, ok, f"closs defect {worst_c:.2e}, loss defect {worst_l:.2e}")


def test_criterion_07_identity_suite(capsys):
    grid = np.arange(-6.0, 6.0 + 1e-9, 0.01)
    relationship = np.max(np.abs(loss_std(grid) - closs_std(grid) + grid))
    reflection = np.max(np.abs(loss_std(grid) - closs_std(-grid)))
    automorphism = np.max(np.abs(closs_std(grid) - closs_std(-grid) - grid))
    h = 1e-5
    xs = np.arange(-5.0, 5.0 + 1e-9, 0.05)
    derivative = np.max(np.abs(
        (closs_std(xs + h) - closs_std(xs - h)) / (2.0 * h) - cdf(xs)))
    ok = (relationship <= 1e-13 and reflection <= 1e-13
          and automorphism <= 1e-13 and derivative <= 1e-6)
    with capsys.disabled():
        _report(7, ok, f"relationship {relationship:.1e}, reflection "
                       f"{reflection:.1e}, automorphism {automorphism:.1e}, "
                       f"derivative {derivative:.1e}")


def test_criterion_08_upper_bound_equivalence(capsys):
    worst_diff = 0.0
    worst_gap_mismatch = 0.0
    for n in (1, 4, 7, 10):
        part = solve_minimax(n)
        shift = BoundReport(part).upper
        chord = build_upper_chord(part.cond_means)
        xs = np.linspace(-9.0, 9.0, 100_000)
        worst_diff = max(worst_diff, float(np.max(np.abs(
            pl_values(shift, xs) - pl_values(chord, xs)))))
        g_lower, _ = max_gap(build_lower(part), 100_000)
        for upper in (shift, chord):
            g_upper, _ = max_gap(upper, 100_000)
            worst_gap_mismatch = max(worst_gap_mismatch, abs(g_upper - g_lower))
    ok = worst_diff <= 1e-6 and worst_gap_mismatch <= 1e-6
    with capsys.disabled():
        _report(8, ok, f"construction diff {worst_diff:.2e}, "
                       f"gap mismatch {worst_gap_mismatch:.2e}")


def test_criterion_09_equal_error_certificate(capsys):
    worst = max(breakpoint_errors(solve_minimax(n)).spread
                for n in range(1, 11))
    ok = worst <= 1e-8
    with capsys.disabled():
        _report(9, ok, f"largest breakpoint-error spread {worst:.2e}")


def test_criterion_10_export_fidelity(capsys):
    report = build_report(solve_minimax(4), NormalParams(20.0, 5.0))
    text = to_json(report)
    round_trip_ok = from_json(text).to_text() == text
    doc = json.loads(text)
    reals_ok = (doc["lower"]["breakpoints"] == list(report.lower.breakpoints)
                and [s["slope"] for s in doc["lower"]["segments"]]
                == list(report.lower.slopes))

    _, constraints, _ = lp_sections(to_lp_constraints(build_report(solve_minimax(4))))
    slopes = sorted(parse_epigraph_row(row)[0] for row in constraints)
    want = [0.0, 0.187555, 0.5, 0.812445, 1.0]
    lp_ok = (len(constraints) == 5
             and all(abs(g - w) <= 1e-5 for g, w in zip(slopes, want)))
    ok = round_trip_ok and reals_ok and lp_ok
    with capsys.disabled():
        _report(10, ok, f"json round-trip byte-exact: {round_trip_ok}, "
                        f"lp inequalities {len(constraints)} slopes "
                        f"{[round(s, 6) for s in slopes]}")
