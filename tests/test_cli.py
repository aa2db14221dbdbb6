import json
import logging
import re
import subprocess
import sys

import numpy as np
import pytest
from pytest import approx

from losslin import (
    NormalParams,
    build_lower,
    build_report,
    closs_std,
    max_gap,
    parameter_table,
    plot_data,
    solve_minimax,
    to_csv_table,
    to_json,
    to_lp_constraints,
)
from losslin import partition as partition_mod
from losslin.cli import _MAX_BOUNDS_SEGMENTS, _MAX_PLOT_POINTS, entry_point, main

from reference_table import REFERENCE


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parser_exit(capsys, *argv):
    """Like run, for an invocation that the parser ends: it exits, not returns."""
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


class TestEval:
    def test_standard_complementary_loss(self, capsys):
        rc, out, _ = run(capsys, "eval", "--x", "0", "--mu", "0",
                         "--sigma", "1", "--target", "closs")
        assert rc == 0
        assert out.strip() == "0.398942280401"

    def test_scaling_at_the_mean(self, capsys):
        rc, out, _ = run(capsys, "eval", "--x", "20", "--mu", "20", "--sigma", "5")
        assert rc == 0
        assert float(out) == approx(5.0 * 0.3989422804014327, abs=1e-12)

    def test_loss_target(self, capsys):
        rc, out, _ = run(capsys, "eval", "--x", "2", "--target", "loss")
        assert rc == 0
        assert float(out) == approx(0.008491, abs=1e-6)

    def test_bad_sigma_fails_loudly(self, capsys):
        rc, out, err = run(capsys, "eval", "--x", "0", "--sigma", "-1")
        assert rc == 1
        assert out == ""
        assert "sigma" in err


class TestTable:
    def test_reference_regression(self, capsys):
        rc, out, err = run(capsys, "table", "--max", "11")
        assert rc == 0
        assert err == ""
        rows = {}
        for line in out.splitlines()[1:]:
            cells = line.split(",")
            rows.setdefault(int(cells[0]), {"error": float(cells[1])})[cells[2]] = [
                float("inf") if c == "inf" else float(c)
                for c in cells[3:] if c
            ]
        assert set(rows) == set(REFERENCE)
        for segments, ref in REFERENCE.items():
            assert rows[segments]["error"] == approx(ref["error"], abs=1e-4)

    def test_minimum_table(self, capsys):
        rc, out, _ = run(capsys, "table", "--max", "2")
        lines = out.strip().splitlines()
        assert rc == 0
        assert len(lines) == 4  # header plus b/p/m rows for one partition
        assert lines[1].startswith("2,")

    def test_extension_row_improves(self, capsys):
        rc, out, _ = run(capsys, "table", "--max", "12")
        assert rc == 0
        twelve = [l for l in out.splitlines() if l.startswith("12,")]
        assert twelve
        err12 = float(twelve[0].split(",")[1])
        assert err12 < 0.00588597
        # cross-check the solver-reported error against a grid scan
        gap, _ = max_gap(build_lower(solve_minimax(11)), 100_000)
        assert err12 == approx(gap, abs=1e-6)

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "table", "--max", "6")
        _, second, _ = run(capsys, "table", "--max", "6")
        assert first == second

    def test_cap_on_segments(self, capsys):
        rc, _, err = run(capsys, "table", "--max", "31")
        assert rc == 1
        assert "30" in err

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_failing_size_writes_nothing(self, capsys, tmp_path, monkeypatch, to_file):
        # N = 1 and 2 are analytic; the first Newton solve, 4 segments, fails
        # after its 4 steps, as no residual meets a negative tolerance
        monkeypatch.setattr(partition_mod, "_TOL", -1.0)
        target = tmp_path / "table.csv"
        argv = ("table", "--max", "4")
        rc, out, err = run(capsys, *argv, *(("--out", str(target)) if to_file else ()))
        assert rc == 1
        assert out == ""
        assert not target.exists()
        assert len(err.splitlines()) == 1 and err.startswith("error: segment count 4:")
        assert ": no certified partition of 3 regions after 4 Newton steps: " in err


class TestBounds:
    def test_json_document(self, capsys):
        rc, out, _ = run(capsys, "bounds", "--segments", "5", "--mu", "20",
                         "--sigma", "5", "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["metadata"]["segment_count"] == 5
        assert doc["metadata"]["max_error"] == approx(0.169526, abs=1e-5)
        assert doc["lower"]["breakpoints"] == approx(
            [20 + 5 * v for v in (-1.43535, -0.415223, 0.415223, 1.43535)],
            abs=1e-3)

    def test_lp_epigraph_for_two_segments(self, capsys):
        rc, out, _ = run(capsys, "bounds", "--segments", "2", "--format", "lp")
        assert rc == 0
        body = [l.strip() for l in out.splitlines()
                if l.strip().startswith("lower_")]
        assert body == ["lower_0: L >= 0", "lower_1: L - x >= 0"]

    def test_plot_gap_column(self, capsys):
        rc, out, _ = run(capsys, "bounds", "--segments", "5", "--sigma", "5",
                         "--mu", "20", "--format", "plot",
                         "--n-points", "100001")
        assert rc == 0
        rows = np.loadtxt(out.splitlines()[1:], delimiter=",")
        assert rows[:, 4].max() == approx(5 * 0.0339052, abs=1e-3)

    def test_csv_format(self, capsys):
        rc, out, _ = run(capsys, "bounds", "--segments", "3", "--format", "csv")
        assert rc == 0
        assert out.splitlines()[0] == "segments,error,param,1,2"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "bundle.json"
        rc, out, _ = run(capsys, "bounds", "--segments", "4",
                         "--format", "json", "--out", str(target))
        assert rc == 0
        assert out == ""
        assert json.loads(target.read_text())["metadata"]["segment_count"] == 4

    def test_unwritable_out_path(self, capsys, tmp_path):
        rc, _, err = run(capsys, "bounds", "--segments", "4", "--format",
                         "json", "--out", str(tmp_path / "missing" / "f.json"))
        assert rc == 1
        assert err.startswith("error:")

    def test_segment_floor(self, capsys):
        rc, _, err = run(capsys, "bounds", "--segments", "1", "--format", "json")
        assert rc == 1
        assert "segments" in err

    def test_custom_lp_variables(self, capsys):
        rc, out, _ = run(capsys, "bounds", "--segments", "2", "--format", "lp",
                         "--var-x", "q", "--var-L", "cost")
        assert rc == 0
        assert "cost - q >= 0" in out

    @pytest.mark.parametrize("var_x, var_l", [
        ("2q", "L>="), ("x", "L>="), ("a b", "L"), ("x", "x"), ("x", "y" * 256),
        ("e1", "E8cats"), ("x", "E8cats"), ("ee", "L"), ("e", "L")])
    def test_invalid_lp_variables_fail_loudly(self, capsys, var_x, var_l):
        rc, out, err = run(capsys, "bounds", "--segments", "3", "--format", "lp",
                           "--var-x", var_x, "--var-L", var_l)
        assert rc == 1
        assert out == ""
        assert err.startswith("error:")

    def test_segment_cap(self, capsys):
        rc, out, err = run(capsys, "bounds", "--segments",
                           str(_MAX_BOUNDS_SEGMENTS + 1), "--format", "csv")
        assert rc == 1
        assert out == ""
        assert err.startswith("error:") and str(_MAX_BOUNDS_SEGMENTS) in err

    @pytest.mark.parametrize("n_points", [1, _MAX_PLOT_POINTS + 1])
    def test_plot_point_cap(self, capsys, n_points):
        # rejected while validating options, before any grid is allocated
        rc, out, err = run(capsys, "bounds", "--segments", "3", "--format", "plot",
                           "--n-points", str(n_points))
        assert rc == 1
        assert out == ""
        assert err == f"error: n-points must lie in 2..{_MAX_PLOT_POINTS}\n"

    def test_tolerance_below_rounding_stalls_with_reason(self, capsys, monkeypatch):
        monkeypatch.setattr(partition_mod, "_TOL", 1e-30)
        rc, out, err = run(capsys, "bounds", "--segments", "8")
        assert rc == 1
        assert out == ""
        assert re.fullmatch(r"error: no certified partition of 7 regions after 4 Newton steps: "
                            r"residual \S+, tol 1e-30\n", err)


class TestMatchesLibrary:
    """CLI stdout is byte-for-byte the library's own export."""

    def test_table(self, capsys):
        rc, out, _ = run(capsys, "table", "--max", "12")
        assert rc == 0
        assert out == to_csv_table(parameter_table(12))

    @pytest.mark.parametrize("segments", [2, 11, 12])
    @pytest.mark.parametrize("fmt", ["json", "csv", "lp", "plot"])
    def test_bounds(self, capsys, segments, fmt):
        rc, out, _ = run(capsys, "bounds", "--segments", str(segments),
                         "--mu", "20", "--sigma", "5", "--format", fmt)
        assert rc == 0
        part = solve_minimax(segments - 1)
        report = build_report(part, NormalParams(20.0, 5.0))
        want = {
            "json": to_json(report),
            "csv": to_csv_table([part]),
            "lp": to_lp_constraints(report),
            "plot": plot_data(report, 1001),
        }
        assert out == want[fmt]


class TestEnvironmentTolerance:
    """The solver tolerance is built in: --tol is an unknown option, and no
    environment variable is read."""

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1", "1e-8"])
    @pytest.mark.parametrize("to_file", [False, True])
    @pytest.mark.parametrize("argv", [
        ("table", "--max", "4"), ("bounds", "--segments", "5")])
    def test_invalid_tol_rejected(self, capsys, tmp_path, argv, to_file, tol):
        target = tmp_path / "out.txt"
        argv = (*argv, "--tol", tol) + (("--out", str(target)) if to_file else ())
        rc, out, err = parser_exit(capsys, *argv)
        assert rc == 1
        assert out == ""
        assert not target.exists()
        assert err.endswith(f"\nerror: unrecognized arguments: --tol {tol}\n")

    def test_eval_ignores_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LOSSLIN_TOL", "abc")
        rc, out, err = run(capsys, "eval", "--x", "0")
        assert rc == 0
        assert out.strip() == "0.398942280401"
        assert err == ""

    def test_table_ignores_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LOSSLIN_TOL", "abc")
        rc, out, err = run(capsys, "table", "--max", "3")
        assert (rc, err) == (0, "")
        assert out == to_csv_table(parameter_table(3))


class TestOptionChecks:
    """Each bad option fails with exit 1 and an error line before any solve."""

    @pytest.fixture(autouse=True)
    def forbid_solving(self, monkeypatch):
        for name in ("solve_minimax", "parameter_table"):
            def solve(*args, name=name, **kwargs):
                pytest.fail(f"{name} called with an invalid option")
            monkeypatch.setattr(f"losslin.cli.{name}", solve)

    @pytest.mark.parametrize("argv, message", [
        (("bounds", "--segments", "1"), f"segments must lie in 2..{_MAX_BOUNDS_SEGMENTS}"),
        (("table", "--max", "31"), "max segments must lie in 2..30"),
        (("eval", "--x", "0", "--sigma", "0"), "sigma must be positive, got 0.0"),
        (("table", "--max", "1"), "max segments must lie in 2..30"),
        (("bounds", "--segments", "3", "--n-points", "1"),
         f"n-points must lie in 2..{_MAX_PLOT_POINTS}"),
        (("bounds", "--segments", "3", "--mu", "nan"), "mu and sigma must be finite"),
        (("eval", "--x", "-inf"), "loss functions require finite arguments"),
    ])
    def test_rejected_before_solving(self, capsys, argv, message):
        rc, out, err = run(capsys, *argv)
        assert rc == 1
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ("bounds", "--segments", "abc"),
        ("bounds", "--segments", "5", "--format", "xml"),
        ("bounds", "--format", "json"),
        ("solve",),
    ], ids=["non-numeric", "bad-choice", "missing-segments", "bad-subcommand"])
    def test_usage_error_exits_1(self, capsys, tmp_path, argv):
        target = tmp_path / "out.txt"
        rc, out, err = parser_exit(capsys, *argv, "--out", str(target))
        assert rc == 1
        assert out == ""
        assert not target.exists()
        assert err.startswith("usage: losslin")
        assert err.splitlines()[-1].startswith("error: ")

    @pytest.mark.parametrize("argv", [(), ("eval",), ("table",), ("bounds",)])
    def test_help_exits_0_without_tol(self, capsys, argv):
        rc, out, err = parser_exit(capsys, *argv, "--help")
        assert rc == 0
        assert out.startswith("usage: losslin") and err == ""
        assert "--tol" not in out


class TestNegativeValues:
    """Negative numbers in exponent form are values, not option names."""

    def test_eval_x(self, capsys):
        rc, out, err = run(capsys, "eval", "--x", "-1e-3")
        assert (rc, err) == (0, "")
        assert out == f"{closs_std(-1e-3):.12f}\n"

    def test_bounds_mu(self, capsys):
        rc, out, err = run(capsys, "bounds", "--segments", "5", "--mu", "-1e-3")
        assert (rc, err) == (0, "")
        assert out == to_json(build_report(solve_minimax(4), NormalParams(-1e-3, 1.0)))

    @pytest.mark.parametrize("segments", ["2", "31", "1000"])
    def test_bounds_mu_negative_zero_writes_the_bytes_of_zero(self, capsys, segments):
        # a mean of -0.0 is stored as 0.0, so the output pin has no --mu -0.0 call
        for target in ("closs", "loss"):
            for fmt in (("json",), ("lp",), ("plot", "--n-points", "201"), ("csv",)):
                neg, zero = (run(capsys, "bounds", "--segments", segments, "--target", target,
                                 "--mu", mu, "--format", *fmt) for mu in ("-0.0", "0"))
                assert neg == zero and zero[0] == 0, (target, fmt)


@pytest.mark.parametrize("fmt", ["json", "lp"])
def test_overflowing_scale_fails_loudly(capsys, fmt):
    rc, out, err = run(capsys, "bounds", "--segments", "5", "--mu", "1e308",
                       "--sigma", "1e308", "--format", fmt)
    assert rc == 1
    assert out == ""
    assert err.startswith("error: domain-scale breakpoints and intercepts must be finite")


def test_csv_at_an_overflowing_scale_writes_the_partition(capsys):
    # the CSV table reads the partition alone, so no bound is placed at the scale,
    # and the table is the same at every scale and target: the output pin holds
    # one CSV call per segment count
    scales = [("1e308", "1e308"), ("0", "1"), ("-12.3", "0.37"), ("20", "5"), ("1e6", "1e-2"),
              ("-0.0", "1")]
    for segments in (5, 2, 31, 1000):
        want = to_csv_table([solve_minimax(segments - 1)])
        for mu, sigma in scales:
            for target in ("closs", "loss"):
                rc, out, err = run(capsys, "bounds", "--segments", str(segments), "--target",
                                   target, "--mu", mu, "--sigma", sigma, "--format", "csv")
                assert (rc, err) == (0, "")
                assert out == want, (segments, mu, sigma, target)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sigma", ["1e308", "1.2e307"])
def test_overflowing_plot_grid_fails_loudly(capsys, sigma):
    # at 1.2e307 only the grid width overflows, not mu +- 8 sigma
    rc, out, err = run(capsys, "bounds", "--segments", "5", "--sigma", sigma,
                       "--format", "plot", "--n-points", "3")
    assert rc == 1
    assert out == ""
    assert err == f"error: plot grid width is not finite (mu=0.0, sigma={float(sigma)!r})\n"


@pytest.mark.parametrize("argv", [
    ("table", "--max", "12"),
    ("bounds", "--segments", "31", "--format", "json"),
    ("bounds", "--segments", "12", "--format", "plot", "--n-points", "11"),
], ids=["table", "json", "plot"])
def test_debug_logging_leaves_stdout_unchanged(capsys, argv):
    rc, quiet, _ = run(capsys, *argv)
    logger = logging.getLogger("losslin")
    handler = logging.StreamHandler(sys.stderr)
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        rc_debug, out, err = run(capsys, *argv)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(logging.NOTSET)
    assert rc == rc_debug == 0
    assert out.encode() == quiet.encode()
    assert "solve_minimax n_regions=" in err


def test_overflowing_standardised_argument_fails_with_one_line():
    # a subprocess, so that stderr holds any warning numpy would print
    proc = subprocess.run(
        [sys.executable, "-m", "losslin.cli", "eval", "--x", "1e308", "--sigma", "1e-300"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: (x - mu) / sigma overflows a double\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "losslin.cli", "eval", "--x", "0"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.398942280401"


@pytest.mark.parametrize("argv, status", [(["table", "--max", "3"], 0),
                                          (["bounds", "--segments", "1"], 1)],
                         ids=["table", "refused"])
def test_console_script_exits_with_the_status_of_main(monkeypatch, capsys, argv, status):
    # pyproject.toml's [project.scripts] names entry_point as the losslin command
    monkeypatch.setattr(sys, "argv", ["losslin", *argv])
    with pytest.raises(SystemExit) as info:
        entry_point()
    assert info.value.code == status
    assert bool(capsys.readouterr().err) == bool(status)
