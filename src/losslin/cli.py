"""Command-line interface.

Three subcommands: ``eval`` prints the exact loss value at a point,
``table`` regenerates the optimal-parameter table, ``bounds`` builds a
bound pair and writes it in one of the export formats.  Segment counts on
the command line follow the user-facing convention (the lower bound's
segment count, which is one more than the number of partition regions).

Each option's default is set once, in the parser; ``losslin SUBCOMMAND
--help`` shows it.  ``table`` and ``bounds`` solve with --tol, which
defaults to the library's DEFAULT_TOL.  The library checks mu, sigma and
tol; the CLI checks only its own size caps.  Every check runs before any
solve, and a failed solve writes nothing: ``table`` exits 1 naming the
first segment count that failed.
"""

from __future__ import annotations

import argparse
import re
import sys

from .bounds import build_report
from .errors import InvalidParameterError, LossLinError
from .export_io import plot_data, to_csv_table, to_json, to_lp_constraints
from .loss_core import NormalParams, closs, loss
from .partition import DEFAULT_TOL, check_tol, parameter_table, solve_minimax

__all__ = ["main", "entry_point"]

_MAX_SEGMENTS_CAP = 30
# largest --segments for bounds (10000 regions); keeps one call's work bounded
_MAX_BOUNDS_SEGMENTS = 10001
# largest --n-points for plot output; keeps the grid and its text bounded
_MAX_PLOT_POINTS = 10**6


def _in_range(name: str, value: int, cap: int) -> None:
    if not 2 <= value <= cap:
        raise InvalidParameterError(f"{name} must lie in 2..{cap}")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and its subparsers, reading -1e-3 and -inf as values.

    argparse's own negative-number pattern knows only -123 and -1.5; no
    losslin option starts with "-" and a digit, ".digit", "inf" or "nan".
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="losslin",
        description="Loss-function values and piecewise-linear minimax bounds "
                    "for normal random variables.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--mu", type=float, default=0.0, help="mean (default %(default)s)")
        p.add_argument("--sigma", type=float, default=1.0,
                       help="standard deviation (default %(default)s)")
        p.add_argument("--target", choices=("closs", "loss"), default="closs",
                       help="complementary loss or loss (default %(default)s)")

    def solver(p):
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="solver tolerance (default %(default)g)")
        p.add_argument("--out", help="output path (default stdout)")

    p_eval = sub.add_parser("eval", help="exact loss value at a point")
    p_eval.add_argument("--x", type=float, required=True)
    common(p_eval)

    p_table = sub.add_parser("table", help="optimal parameter table")
    p_table.add_argument("--max", dest="max_segments", type=int, default=11,
                         help="largest segment count (default %(default)s)")
    solver(p_table)

    p_bounds = sub.add_parser("bounds", help="build and export a bound pair")
    p_bounds.add_argument("--segments", type=int, required=True,
                          help="lower-bound segment count (>= 2)")
    common(p_bounds)
    p_bounds.add_argument("--format", dest="fmt",
                          choices=("json", "csv", "lp", "plot"), default="json",
                          help="output format (default %(default)s)")
    solver(p_bounds)
    p_bounds.add_argument("--n-points", dest="n_points", type=int, default=1001,
                          help="rows in plot output (default %(default)s)")
    p_bounds.add_argument("--var-x", dest="var_x", default="x",
                          help="LP variable name for the argument (default %(default)s)")
    p_bounds.add_argument("--var-L", dest="var_l", default="L",
                          help="LP variable name for the loss value (default %(default)s)")
    return parser


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_eval(args: argparse.Namespace) -> int:
    params = NormalParams(args.mu, args.sigma)
    fn = closs if args.target == "closs" else loss
    print(f"{fn(args.x, params):.12f}")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    check_tol(args.tol)
    _in_range("max segments", args.max_segments, _MAX_SEGMENTS_CAP)
    _write(to_csv_table(parameter_table(args.max_segments, args.tol)), args.out)
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    _in_range("segments", args.segments, _MAX_BOUNDS_SEGMENTS)
    scale = NormalParams(args.mu, args.sigma)
    check_tol(args.tol)
    _in_range("n-points", args.n_points, _MAX_PLOT_POINTS)
    part = solve_minimax(args.segments - 1, tol=args.tol)
    report = build_report(part, scale, args.target)
    if args.fmt == "json":
        text = to_json(report)
    elif args.fmt == "csv":
        text = to_csv_table([part])
    elif args.fmt == "lp":
        text = to_lp_constraints(report, args.var_x, args.var_l)
    else:
        text = plot_data(report, args.n_points)
    _write(text, args.out)
    return 0


_COMMANDS = {"eval": cmd_eval, "table": cmd_table, "bounds": cmd_bounds}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    except (LossLinError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
