"""Command-line interface.

Three subcommands: ``eval`` prints the exact loss value at a point,
``table`` regenerates the optimal-parameter table, ``bounds`` builds a
bound pair and writes it in one of the export formats.  Segment counts on
the command line follow the user-facing convention (the lower bound's
segment count, which is one more than the number of partition regions).

The default solver tolerance of ``table`` and ``bounds`` is 1e-10; the
LOSSLIN_TOL environment variable overrides it and an explicit --tol beats
both.  ``eval`` never solves and ignores LOSSLIN_TOL.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

from .bounds import build_report
from .errors import InvalidParameterError, LossLinError, SolverError
from .export_io import plot_data, to_csv_table, to_json, to_lp_constraints
from .loss_core import NormalParams, closs, loss
from .partition import DEFAULT_TOL, solve_minimax

__all__ = ["CliConfig", "main", "entry_point"]

_MAX_SEGMENTS_CAP = 30
# largest --segments for bounds (10000 regions); keeps one call's work bounded
_MAX_BOUNDS_SEGMENTS = 10001
# largest --n-points for plot output; keeps the grid and its text bounded
_MAX_PLOT_POINTS = 10**6


@dataclass(frozen=True)
class CliConfig:
    """Validated bundle of command-line options."""

    subcommand: str
    segments: int = 2
    mu: float = 0.0
    sigma: float = 1.0
    target: str = "closs"
    fmt: str = "json"
    tol: float = DEFAULT_TOL
    out: str | None = None
    x: float = 0.0
    max_segments: int = 11
    n_points: int = 1001
    var_x: str = "x"
    var_l: str = "L"

    def __post_init__(self):
        if not 2 <= self.segments <= _MAX_BOUNDS_SEGMENTS:
            raise InvalidParameterError(
                f"segments must lie in 2..{_MAX_BOUNDS_SEGMENTS}")
        if self.sigma <= 0.0:
            raise InvalidParameterError("sigma must be positive")
        if not 0.0 < self.tol < math.inf:
            raise InvalidParameterError("tol must be a positive finite number")
        if not 2 <= self.max_segments <= _MAX_SEGMENTS_CAP:
            raise InvalidParameterError(
                f"max segments must lie in 2..{_MAX_SEGMENTS_CAP}")
        if not 2 <= self.n_points <= _MAX_PLOT_POINTS:
            raise InvalidParameterError(
                f"n-points must lie in 2..{_MAX_PLOT_POINTS}")


def _default_tol() -> float:
    raw = os.environ.get("LOSSLIN_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        return float(raw)
    except ValueError as exc:
        raise InvalidParameterError(f"LOSSLIN_TOL is not a number: {raw!r}") from exc


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="losslin",
        description="Loss-function values and piecewise-linear minimax bounds "
                    "for normal random variables.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--mu", type=float, default=0.0, help="mean (default 0)")
        p.add_argument("--sigma", type=float, default=1.0,
                       help="standard deviation (default 1)")
        p.add_argument("--target", choices=("closs", "loss"), default="closs",
                       help="complementary loss (default) or loss")

    p_eval = sub.add_parser("eval", help="exact loss value at a point")
    p_eval.add_argument("--x", type=float, required=True)
    common(p_eval)

    p_table = sub.add_parser("table", help="optimal parameter table")
    p_table.add_argument("--max", dest="max_segments", type=int, default=11,
                         help="largest segment count (default 11)")
    p_table.add_argument("--tol", type=float, default=None)
    p_table.add_argument("--out", default=None, help="output path (default stdout)")

    p_bounds = sub.add_parser("bounds", help="build and export a bound pair")
    p_bounds.add_argument("--segments", type=int, required=True,
                          help="lower-bound segment count (>= 2)")
    common(p_bounds)
    p_bounds.add_argument("--format", dest="fmt",
                          choices=("json", "csv", "lp", "plot"), default="json")
    p_bounds.add_argument("--tol", type=float, default=None)
    p_bounds.add_argument("--out", default=None)
    p_bounds.add_argument("--n-points", dest="n_points", type=int, default=1001,
                          help="rows in plot output (default 1001)")
    p_bounds.add_argument("--var-x", dest="var_x", default="x",
                          help="LP variable name for the argument")
    p_bounds.add_argument("--var-L", dest="var_l", default="L",
                          help="LP variable name for the loss value")
    return parser


def _config(args: argparse.Namespace) -> CliConfig:
    # eval takes no tolerance, so LOSSLIN_TOL is read only where one is used
    tol = getattr(args, "tol", DEFAULT_TOL)
    return CliConfig(
        subcommand=args.subcommand,
        segments=getattr(args, "segments", 2),
        mu=getattr(args, "mu", 0.0),
        sigma=getattr(args, "sigma", 1.0),
        target=getattr(args, "target", "closs"),
        fmt=getattr(args, "fmt", "json"),
        tol=_default_tol() if tol is None else tol,
        out=getattr(args, "out", None),
        x=getattr(args, "x", 0.0),
        max_segments=getattr(args, "max_segments", 11),
        n_points=getattr(args, "n_points", 1001),
        var_x=getattr(args, "var_x", "x"),
        var_l=getattr(args, "var_l", "L"),
    )


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_eval(cfg: CliConfig) -> int:
    params = NormalParams(cfg.mu, cfg.sigma)
    fn = closs if cfg.target == "closs" else loss
    print(f"{fn(cfg.x, params):.12f}")
    return 0


def cmd_table(cfg: CliConfig) -> int:
    rows = []
    failures = []
    for segments in range(2, cfg.max_segments + 1):
        try:
            rows.append(solve_minimax(segments - 1, tol=cfg.tol))
        except SolverError as exc:
            failures.append(segments)
            print(f"segments {segments}: {exc}", file=sys.stderr)
    if rows:
        _write(to_csv_table(rows), cfg.out)
    return 1 if failures else 0


def cmd_bounds(cfg: CliConfig) -> int:
    part = solve_minimax(cfg.segments - 1, tol=cfg.tol)
    scale = NormalParams(cfg.mu, cfg.sigma)
    report = build_report(part, scale, cfg.target)
    if cfg.fmt == "json":
        text = to_json(report)
    elif cfg.fmt == "csv":
        text = to_csv_table([part])
    elif cfg.fmt == "lp":
        text = to_lp_constraints(report, cfg.var_x, cfg.var_l)
    else:
        text = plot_data(report, cfg.n_points)
    _write(text, cfg.out)
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _config(args)
        if cfg.subcommand == "eval":
            return cmd_eval(cfg)
        if cfg.subcommand == "table":
            return cmd_table(cfg)
        return cmd_bounds(cfg)
    except LossLinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
