"""Piecewise-linear lower and upper bounds of the (complementary) loss function.

Bounds are composed in standard scale and carry a NormalParams scale; the
domain-scale view (breakpoints shifted by mu, intercepts rescaled) is
derived once, on construction, through affine arithmetic and must be
finite.  The lower bound collects the tangents of the complementary loss
at the partition boundaries; the upper bound is either that lower bound
shifted up by its maximum error or a chord construction over
caller-chosen breakpoints, with a horizontal line and a unit-slope line
covering the two unbounded extreme regions.

A "loss" target applies the shear closs(x) - (x - mu) to every segment,
so exported coefficients are directly usable for either function.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from . import gaussian
from .errors import BoundViolationError, DomainError, InvalidParameterError
from .loss_core import NormalParams, STANDARD, closs_std
from .partition import Partition, breakpoint_errors

__all__ = [
    "PiecewiseLinear",
    "BoundReport",
    "build_lower",
    "build_upper_chord",
    "build_report",
    "evaluate",
    "max_gap",
]

# BoundReport's spread limits; only the relative one binds once max_error <= 1e-6
_EQUAL_ERROR_SPREAD = 1e-6
_EQUAL_ERROR_RELATIVE = 1e-5


@dataclass(frozen=True)
class PiecewiseLinear:
    """An ordered chain of linear segments, continuous at its breakpoints.

    std_* fields hold the canonical standard-scale data (one more segment
    than breakpoints; outer segments unbounded), stored as tuples of Python
    floats whatever sequence was passed.  The breakpoints, slopes and
    intercepts properties expose the domain-scale view, which construction
    computes once and rejects unless every value is finite.
    """

    std_breakpoints: tuple[float, ...]
    std_slopes: tuple[float, ...]
    std_intercepts: tuple[float, ...]
    kind: str  # "lower" | "upper"
    target: str  # "closs" | "loss"
    scale: NormalParams
    _breakpoints: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _intercepts: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_scale(self.scale)
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
        object.__setattr__(self, "std_breakpoints", tuple(bp.tolist()))
        object.__setattr__(self, "std_slopes", tuple(s.tolist()))
        object.__setattr__(self, "std_intercepts", tuple(c.tolist()))
        mu, sigma = self.scale.mu, self.scale.sigma
        breakpoints = tuple(sigma * t + mu for t in self.std_breakpoints)
        intercepts = tuple(sigma * c - s * mu
                           for s, c in zip(self.std_slopes, self.std_intercepts))
        if not all(map(math.isfinite, breakpoints + intercepts)):
            raise InvalidParameterError(
                f"domain-scale breakpoints and intercepts must be finite"
                f" (mu={mu!r}, sigma={sigma!r})")
        object.__setattr__(self, "_breakpoints", breakpoints)
        object.__setattr__(self, "_intercepts", intercepts)

    @property
    def n_segments(self) -> int:
        return len(self.std_slopes)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return self._breakpoints

    @property
    def slopes(self) -> tuple[float, ...]:
        # rescaling x -> (x - mu)/sigma and multiplying values by sigma
        # leaves segment slopes unchanged
        return self.std_slopes

    @property
    def intercepts(self) -> tuple[float, ...]:
        return self._intercepts

    def __call__(self, x: float) -> float:
        return evaluate(self, x)


def evaluate(pl: PiecewiseLinear, x: float) -> float:
    """Value of the active segment at x (binary search over breakpoints)."""
    if not math.isfinite(x):
        raise DomainError("evaluate requires finite x")
    mu, sigma = pl.scale.mu, pl.scale.sigma
    idx = bisect_right(pl.std_breakpoints, (x - mu) / sigma)
    return pl.std_slopes[idx] * x + pl._intercepts[idx]


def _shear(slopes: tuple[float, ...], target: str) -> tuple[float, ...]:
    """Slopes for target; PiecewiseLinear rejects a target other than
    "closs" and "loss"."""
    if target == "loss":
        return tuple(s - 1.0 for s in slopes)
    return slopes


def build_lower(partition: Partition, scale: NormalParams = STANDARD,
                target: str = "closs") -> PiecewiseLinear:
    """Tangent-collection lower bound with one segment per region plus one.

    In standard scale segment i is the tangent of the complementary loss
    at boundary b_i (slope Phi(b_i), intercept phi(b_i)); segment 0 is the
    zero function and the breakpoints fall at the conditional means.
    """
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


@dataclass(frozen=True)
class BoundReport:
    """A matched lower/upper bound pair with its error certificate.

    A report is its partition, scale and target, the only constructor
    arguments.  Construction rejects a partition whose breakpoint errors
    spread by more than 1e-6 or more than 1e-5 * max_error, then derives
    the tangent lower bound (build_lower) and the upper bound, that chain
    with every standard intercept lifted by the partition's maximum error.
    The lower bound's error peaks at its breakpoints, the rescaled
    conditional means; the upper bound's at upper_error_locations, the
    rescaled region boundaries and +-infinity.  Both peaks equal max_error,
    sigma times the partition's standard error.
    """

    partition: Partition
    scale: NormalParams = STANDARD
    target: str = "closs"
    lower: PiecewiseLinear = field(init=False)
    upper: PiecewiseLinear = field(init=False)

    def __post_init__(self):
        part = self.partition
        if not isinstance(part, Partition):
            raise InvalidParameterError("partition must be a Partition instance")
        spread = breakpoint_errors(part).spread
        limit = min(_EQUAL_ERROR_SPREAD, _EQUAL_ERROR_RELATIVE * part.max_error)
        if spread > limit:
            raise InvalidParameterError(
                f"shift construction needs an equal-error partition (spread {spread:.3e} >"
                f" {limit:.3e}, the lesser of {_EQUAL_ERROR_SPREAD:g} and"
                f" {_EQUAL_ERROR_RELATIVE:g} * max_error)")
        lower = build_lower(part, self.scale, self.target)
        upper = PiecewiseLinear(
            std_breakpoints=lower.std_breakpoints,
            std_slopes=lower.std_slopes,
            std_intercepts=tuple(c + part.max_error for c in lower.std_intercepts),
            kind="upper",
            target=self.target,
            scale=self.scale,
        )
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def max_error(self) -> float:
        return self.scale.sigma * self.partition.max_error

    @property
    def upper_error_locations(self) -> tuple[float, ...]:
        mu, sigma = self.scale.mu, self.scale.sigma
        return ((-math.inf,)
                + tuple(sigma * b + mu for b in self.partition.upper_limits[:-1])
                + (math.inf,))


def build_report(partition: Partition, scale: NormalParams = STANDARD,
                 target: str = "closs") -> BoundReport:
    """The lower/upper bound pair of partition; same as BoundReport(partition, scale, target)."""
    return BoundReport(partition, scale, target)


def max_gap(pl: PiecewiseLinear, n_grid=None) -> tuple[float, float]:
    """Largest absolute gap between the bound and the exact function, exactly.

    The exact function is convex, so on each segment its gap to the
    segment's line is convex (lower bound) or concave (upper bound) and
    takes its extremes at the segment's ends or at the tangency abscissa
    inv_cdf(slope) clipped to the segment; at -inf and +inf the gap tends
    to the outer intercepts.  These points are evaluated in standard scale
    (a loss target's shear removed first, which leaves the gap unchanged)
    and the result is scaled by sigma.  Raises BoundViolationError when the
    bound crosses the exact function by more than min(1e-12 sigma, 1e-9).
    Returns (gap, location); the location is -inf or +inf when the gap is
    largest in a limit.  n_grid is accepted and ignored, so that calls
    passing a grid size keep working.
    """
    s = np.asarray(pl.std_slopes) + (1.0 if pl.target == "loss" else 0.0)
    c = np.asarray(pl.std_intercepts)
    bp = np.asarray(pl.std_breakpoints)
    # tangency abscissae clipped to segment i = [lo[i], hi[i]]; a slope of
    # 0 or 1 clips to an end, and an infinite end is one of the limits
    lo = np.concatenate(([-np.inf], bp))
    hi = np.concatenate((bp, [np.inf]))
    inside = (s > 0.0) & (s < 1.0)
    tangent = np.where(s <= 0.0, -np.inf, np.inf)
    tangent[inside] = gaussian.inv_cdf(s[inside])
    tangent = np.clip(tangent, lo, hi)
    finite = np.isfinite(tangent)
    # each breakpoint is evaluated with the lines of both segments it ends,
    # as they may disagree by rounding
    seg = np.concatenate((np.arange(s.size - 1), np.arange(1, s.size), np.flatnonzero(finite)))
    t = np.concatenate((bp, bp, tangent[finite]))
    sign = 1.0 if pl.kind == "upper" else -1.0
    margin = np.concatenate((sign * (s[seg] * t + c[seg] - closs_std(t)),
                             (sign * c[0], sign * c[-1])))
    where = np.concatenate((t, (-np.inf, np.inf)))

    mu, sigma = pl.scale.mu, pl.scale.sigma
    worst = float(np.min(margin))
    if not worst >= -min(1e-12, 1e-9 / sigma):
        raise BoundViolationError(
            f"{pl.kind} bound crosses the exact function by {-worst * sigma:.3e}")
    i = int(np.argmax(np.abs(margin)))
    return sigma * abs(float(margin[i])), sigma * float(where[i]) + mu


def _check_scale(scale: NormalParams):
    if not isinstance(scale, NormalParams):
        raise InvalidParameterError("scale must be a NormalParams instance")
