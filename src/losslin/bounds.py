"""Piecewise-linear lower and upper bounds of the (complementary) loss function.

Bounds are composed in standard scale and carry a NormalParams scale; the
domain-scale view (breakpoints shifted by mu, intercepts rescaled) is
derived lazily through exact affine arithmetic.  The lower bound collects
the tangents of the complementary loss at the partition boundaries; the
upper bound is either that lower bound shifted up by its maximum error or
a chord construction over caller-chosen breakpoints, with a horizontal
line and a unit-slope line covering the two unbounded extreme regions.

A "loss" target applies the shear closs(x) - (x - mu) to every segment,
so exported coefficients are directly usable for either function.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import gaussian
from .errors import BoundViolationError, DomainError, InvalidParameterError
from .loss_core import NormalParams, STANDARD, closs, closs_std, loss
from .partition import Partition, breakpoint_errors

__all__ = [
    "PiecewiseLinear",
    "BoundReport",
    "build_lower",
    "build_upper_shift",
    "build_upper_chord",
    "build_report",
    "upper_error_location",
    "evaluate",
    "max_gap",
]

_EQUAL_ERROR_SPREAD = 1e-6
_SANDWICH_SLACK = 1e-9


@dataclass(frozen=True)
class PiecewiseLinear:
    """An ordered chain of linear segments, continuous at its breakpoints.

    std_* fields hold the canonical standard-scale data (one more segment
    than breakpoints; outer segments unbounded).  The breakpoints, slopes
    and intercepts properties expose the domain-scale view.
    """

    std_breakpoints: tuple[float, ...]
    std_slopes: tuple[float, ...]
    std_intercepts: tuple[float, ...]
    kind: str  # "lower" | "upper"
    target: str  # "closs" | "loss"
    scale: NormalParams

    def __post_init__(self):
        if self.kind not in ("lower", "upper"):
            raise InvalidParameterError(f"unknown kind {self.kind!r}")
        if self.target not in ("closs", "loss"):
            raise InvalidParameterError(f"unknown target {self.target!r}")
        bp = np.asarray(self.std_breakpoints, dtype=float)
        s = np.asarray(self.std_slopes, dtype=float)
        c = np.asarray(self.std_intercepts, dtype=float)
        if s.size != c.size or s.size != bp.size + 1:
            raise InvalidParameterError("need one slope/intercept pair per segment")
        if bp.size and (not np.all(np.isfinite(bp)) or np.any(np.diff(bp) <= 0)):
            raise InvalidParameterError("breakpoints must be finite and strictly increasing")
        if bp.size:
            jump = (s[1:] - s[:-1]) * bp + (c[1:] - c[:-1])
            if np.max(np.abs(jump)) > 1e-10:
                raise InvalidParameterError("adjacent segments must agree at breakpoints")
        shear = -1.0 if self.target == "loss" else 0.0
        base = s - shear
        if abs(base[0]) > 1e-12 or abs(base[-1] - 1.0) > 1e-12:
            raise InvalidParameterError("extreme slopes must match the asymptotes of the target")
        ds = np.diff(s)
        if self.kind == "lower" and np.any(ds <= 0):
            raise InvalidParameterError("lower-bound slopes must be strictly increasing")
        if self.kind == "upper" and np.any(ds < 0):
            raise InvalidParameterError("upper-bound slopes must be nondecreasing")

    @property
    def n_segments(self) -> int:
        return len(self.std_slopes)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        mu, sigma = self.scale.mu, self.scale.sigma
        return tuple(sigma * t + mu for t in self.std_breakpoints)

    @property
    def slopes(self) -> tuple[float, ...]:
        # rescaling x -> (x - mu)/sigma and multiplying values by sigma
        # leaves segment slopes unchanged
        return tuple(self.std_slopes)

    @property
    def intercepts(self) -> tuple[float, ...]:
        mu, sigma = self.scale.mu, self.scale.sigma
        return tuple(sigma * c - s * mu
                     for s, c in zip(self.std_slopes, self.std_intercepts))

    def __call__(self, x: float) -> float:
        return evaluate(self, x)


def evaluate(pl: PiecewiseLinear, x: float) -> float:
    """Value of the active segment at x (binary search over breakpoints)."""
    if not math.isfinite(x):
        raise DomainError("evaluate requires finite x")
    mu, sigma = pl.scale.mu, pl.scale.sigma
    idx = bisect_right(pl.std_breakpoints, (x - mu) / sigma)
    # the active segment's domain-scale slope and intercept, computed as in
    # the slopes/intercepts properties but without building whole tuples
    s = pl.std_slopes[idx]
    return s * x + (sigma * pl.std_intercepts[idx] - s * mu)


def _evaluate_array(pl: PiecewiseLinear, xs: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(np.asarray(pl.breakpoints), xs, side="right")
    s = np.asarray(pl.slopes)[idx]
    c = np.asarray(pl.intercepts)[idx]
    return s * xs + c


def _shear(slopes: tuple[float, ...], target: str) -> tuple[float, ...]:
    if target == "loss":
        return tuple(s - 1.0 for s in slopes)
    if target != "closs":
        raise InvalidParameterError(f"unknown target {target!r}")
    return slopes


def build_lower(partition: Partition, scale: NormalParams = STANDARD,
                target: str = "closs") -> PiecewiseLinear:
    """Tangent-collection lower bound with one segment per region plus one.

    In standard scale segment i is the tangent of the complementary loss
    at boundary b_i (slope Phi(b_i), intercept phi(b_i)); segment 0 is the
    zero function and the breakpoints fall at the conditional means.
    """
    _check_scale(scale)
    interior = np.asarray(partition.upper_limits[:-1], dtype=float)
    mid_slopes = tuple(float(v) for v in np.atleast_1d(gaussian.cdf(interior)))
    mid_intercepts = tuple(float(v) for v in np.atleast_1d(gaussian.phi(interior)))
    slopes = (0.0, *mid_slopes, 1.0)
    intercepts = (0.0, *mid_intercepts, 0.0)
    return PiecewiseLinear(
        std_breakpoints=partition.cond_means,
        std_slopes=_shear(slopes, target),
        std_intercepts=intercepts,
        kind="lower",
        target=target,
        scale=scale,
    )


def build_upper_shift(partition: Partition, scale: NormalParams = STANDARD,
                      target: str = "closs") -> PiecewiseLinear:
    """Upper bound obtained by lifting the lower bound by its maximum error.

    Valid only for equal-error partitions: the lifted chain then touches
    the exact function at every conditional mean.
    """
    _check_scale(scale)
    return _shift(build_lower(partition, scale, target), partition)


def _shift(lower: PiecewiseLinear, partition: Partition) -> PiecewiseLinear:
    """lower, built from partition, lifted by the partition's maximum error."""
    spread = breakpoint_errors(partition).spread
    if spread > _EQUAL_ERROR_SPREAD:
        raise InvalidParameterError(
            f"shift construction needs an equal-error partition (spread {spread:.3e})")
    return PiecewiseLinear(
        std_breakpoints=lower.std_breakpoints,
        std_slopes=lower.std_slopes,
        std_intercepts=tuple(c + partition.max_error for c in lower.std_intercepts),
        kind="upper",
        target=lower.target,
        scale=lower.scale,
    )


def build_upper_chord(domain_breakpoints, scale: NormalParams = STANDARD,
                      target: str = "closs") -> PiecewiseLinear:
    """Chord upper bound over the compact regions between the breakpoints.

    Adjacent breakpoints are joined by the chord of the complementary
    loss; the unbounded extreme regions get the horizontal line through
    the first point and the unit-slope line through the last.
    """
    _check_scale(scale)
    pts = np.asarray(tuple(domain_breakpoints), dtype=float)
    if pts.size == 0:
        raise InvalidParameterError("need at least one breakpoint")
    if not np.all(np.isfinite(pts)) or np.any(np.diff(pts) <= 0):
        raise InvalidParameterError("breakpoints must be finite and strictly increasing")
    t = (pts - scale.mu) / scale.sigma
    v = np.atleast_1d(closs_std(t))
    slopes = [0.0]
    intercepts = [float(v[0])]
    for a, b, va, vb in zip(t[:-1], t[1:], v[:-1], v[1:]):
        alpha = (vb - va) / (b - a)
        slopes.append(float(alpha))
        intercepts.append(float(va - alpha * a))
    slopes.append(1.0)
    intercepts.append(float(v[-1] - t[-1]))
    return PiecewiseLinear(
        std_breakpoints=tuple(float(x) for x in t),
        std_slopes=_shear(tuple(slopes), target),
        std_intercepts=tuple(intercepts),
        kind="upper",
        target=target,
        scale=scale,
    )


def upper_error_location(segment_slope: float) -> float:
    """Standard-scale point where a chord segment's gap to the exact
    function is largest: the tangency abscissa of the matching slope."""
    if not 0.0 < segment_slope < 1.0:
        raise DomainError("segment slope must lie strictly between 0 and 1")
    return gaussian.inv_cdf(segment_slope)


@dataclass(frozen=True)
class BoundReport:
    """A matched lower/upper bound pair with its error certificate."""

    lower: PiecewiseLinear
    upper: PiecewiseLinear
    max_error: float
    lower_error_locations: tuple[float, ...]
    upper_error_locations: tuple[float, ...]
    partition: Partition


def build_report(partition: Partition, scale: NormalParams = STANDARD,
                 target: str = "closs") -> BoundReport:
    """Bundle the tangent lower bound and the shifted upper bound.

    The lower bound's error peaks at the rescaled conditional means, the
    upper bound's at the rescaled region boundaries and at +-infinity;
    both peaks equal sigma times the partition's standard error.
    """
    _check_scale(scale)
    mu, sigma = scale.mu, scale.sigma
    lower = build_lower(partition, scale, target)
    return BoundReport(
        lower=lower,
        upper=_shift(lower, partition),
        max_error=sigma * partition.max_error,
        lower_error_locations=tuple(sigma * m + mu for m in partition.cond_means),
        upper_error_locations=(-math.inf,)
        + tuple(sigma * b + mu for b in partition.upper_limits[:-1])
        + (math.inf,),
        partition=partition,
    )


def _exact(pl: PiecewiseLinear, x):
    return closs(x, pl.scale) if pl.target == "closs" else loss(x, pl.scale)


def _grid(pl: PiecewiseLinear, n: int) -> np.ndarray:
    mu, sigma = pl.scale.mu, pl.scale.sigma
    lo, hi = mu - 8.0 * sigma, mu + 8.0 * sigma
    bp = pl.breakpoints
    if bp:
        lo = min(lo, bp[0])
        hi = max(hi, bp[-1])
    return np.linspace(lo, hi, n)


def max_gap(pl: PiecewiseLinear, n_grid: int = 100_000) -> tuple[float, float]:
    """Largest absolute gap between the bound and the exact function.

    Scans a uniform grid over mu +- 8 sigma (extended to the outermost
    breakpoints), then sharpens the winner by ternary search within one
    grid spacing; the gap is unimodal there for both bound kinds.  Also
    verifies the signed bound property everywhere on the grid, raising
    BoundViolationError beyond 1e-9 slack.  Returns (gap, location).
    """
    if not isinstance(n_grid, int) or n_grid < 100:
        raise InvalidParameterError("n_grid must be an integer >= 100")
    xs = _grid(pl, n_grid)
    exact = _exact(pl, xs)
    vals = _evaluate_array(pl, xs)
    signed = (exact - vals) if pl.kind == "lower" else (vals - exact)
    worst = float(np.min(signed))
    if worst < -_SANDWICH_SLACK:
        raise BoundViolationError(
            f"{pl.kind} bound crosses the exact function by {-worst:.3e}")

    gap = np.abs(vals - exact)
    i = int(np.argmax(gap))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, n_grid - 1)]

    def g(x: float) -> float:
        return abs(evaluate(pl, x) - _exact(pl, x))

    for _ in range(80):
        third = (hi - lo) / 3.0
        m1, m2 = lo + third, hi - third
        if g(m1) < g(m2):
            lo = m1
        else:
            hi = m2
    x_best = 0.5 * (lo + hi)
    g_best = g(x_best)
    if g_best >= gap[i]:
        return g_best, float(x_best)
    return float(gap[i]), float(xs[i])


def _check_scale(scale: NormalParams):
    if not isinstance(scale, NormalParams):
        raise InvalidParameterError("scale must be a NormalParams instance")
