#!/usr/bin/env python3
"""Fit the index shift of the Newton start of solve_minimax to solved partitions.

The solver starts from the N(0, 2) quantiles sqrt(2) inv_cdf((k + delta)/(N + 0.3))
(losslin.partition._start).  For each solved partition of N = --min..--max
regions this reads off the shift delta of every negative interior boundary
b_k, delta = (N + 0.3) Phi(b_k / sqrt(2)) - k, and fits it by least squares
in 18 terms of u = k/(N + 0.3), w = 1/(k + 0.5) and g = 1/ln N.  Each size
weighs the same, so the few boundaries of a small N count as much as the
many of a large one.  It prints the coefficients as the constant
partition._START_FIT, in the order of TERMS, the rms over the sizes of each
size's rms residual, and the largest residual.

The terms are nearly collinear, so the coefficients are ill-determined one by
one: solves that move at rounding level move them from the fifth significant
digit on, and the fitted shifts by under 1e-8.  The committed constant is the
fit over the default sizes, which takes about a minute:

    python scripts/fit_start.py --min 3 --max 10001
"""

import argparse
import math

import numpy as np

from losslin import cdf, solve_minimax

TERMS = ("1", "u", "u^2", "u^3", "sqrt(u)", "u sqrt(u)", "w", "w^2", "w^3", "w g",
         "w^2 g", "g", "g u", "g sqrt(u)", "g^2", "g^2 u", "w u", "w sqrt(u)")


def design(k: np.ndarray, n: int) -> np.ndarray:
    """The TERMS at boundaries k of an N-region partition, one row per boundary."""
    u, w, g = k / (n + 0.3), 1.0 / (k + 0.5), 1.0 / math.log(n)
    r, one = np.sqrt(u), np.ones_like(k)
    return np.column_stack((one, u, u * u, u * u * u, r, u * r, w, w * w, w * w * w, w * g,
                            w * w * g, g * one, g * u, g * r, g * g * one, g * g * u, w * u, w * r))


def solved_shifts(n: int) -> tuple[np.ndarray, np.ndarray]:
    """k = 1..ceil(N/2) - 1 and the shifts delta_k of the solved partition's boundaries."""
    b = np.asarray(solve_minimax(n).upper_limits[:(n + 1) // 2 - 1])
    k = np.arange(1.0, b.size + 1)
    return k, (n + 0.3) * cdf(b / math.sqrt(2.0)) - k


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--min", type=int, default=3, help="smallest region count (at least 3)")
    ap.add_argument("--max", type=int, default=10001, help="largest region count")
    args = ap.parse_args()
    if not 3 <= args.min <= args.max:
        ap.error("need 3 <= --min <= --max")

    # least squares by a running QR of [A | delta]: the triangle R carries
    # every size seen so far, so no design matrix over all sizes is held.
    # A size's rows are scaled by 1/sqrt(its boundary count), so each size
    # weighs the same
    sizes = range(args.min, args.max + 1)
    r = np.zeros((0, len(TERMS) + 1))
    count = 0
    for n in sizes:
        k, delta = solved_shifts(n)
        rows = np.column_stack((design(k, n), delta)) / math.sqrt(k.size)
        r = np.linalg.qr(np.vstack((r, rows)), mode="r")
        count += k.size
    if r.shape[0] < len(TERMS):
        ap.error(f"{count} boundaries cannot fit {len(TERMS)} terms; raise --max")
    coef = np.linalg.solve(np.triu(r[:len(TERMS), :len(TERMS)]), r[:len(TERMS), -1])

    worst = 0.0
    for n in sizes:
        k, delta = solved_shifts(n)
        worst = max(worst, float(np.max(np.abs(design(k, n) @ coef - delta))))
    rms = abs(r[len(TERMS), -1]) / math.sqrt(len(sizes)) if r.shape[0] > len(TERMS) else 0.0

    print(f"# least squares over the {count} boundaries of N = {args.min}..{args.max}:"
          f" rms {rms:.2g}, largest residual {worst:.2g}")
    print("_START_FIT = (")
    for c, term in zip(coef.tolist(), TERMS):
        print(f"    {c!r},  # {term}")
    print(")")


if __name__ == "__main__":
    main()
