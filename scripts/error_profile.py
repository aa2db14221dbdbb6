#!/usr/bin/env python3
"""Dump approximation-error profiles of the lower bound for a range of
segment counts.

Writes one CSV per segment count (columns x, exact, lower, upper,
gap_lower, gap_upper) plus a summary CSV of the peak errors, which should
shrink monotonically as segments are added.

    python scripts/error_profile.py --max 11 --points 4001 --outdir profiles/
"""

import argparse
from pathlib import Path

from losslin import build_report, max_gap, plot_data, solve_minimax


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max", type=int, default=11, help="largest segment count")
    ap.add_argument("--points", type=int, default=4001, help="grid points per profile")
    ap.add_argument("--outdir", default="profiles", help="output directory")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    summary = ["segments,max_error,gap,argmax"]
    for segments in range(2, args.max + 1):
        part = solve_minimax(segments - 1)
        report = build_report(part)
        path = outdir / f"profile_{segments:02d}.csv"
        path.write_text(plot_data(report, args.points))
        gap, at = max_gap(report.lower)
        summary.append(f"{segments},{part.max_error:.12g},{gap:.12g},{at:.12g}")
        print(f"segments={segments:2d}  max_error={part.max_error:.8f}  -> {path}")

    (outdir / "summary.csv").write_text("\n".join(summary) + "\n")
    print(f"wrote {outdir / 'summary.csv'}")


if __name__ == "__main__":
    main()
