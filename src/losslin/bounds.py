"""Piecewise-linear lower and upper bounds of the (complementary) loss function.

Each bound is a standard-scale chain of the complementary loss, whatever its
target, placed at a NormalParams scale and a target by one affine map, _place:
breakpoints sigma t + mu, slopes s or, for the "loss" target, s - 1 (the shear
loss(x) = closs(x) - (x - mu)), and intercepts sigma c - s' mu with the mapped
slope s'; a view checks only the scale, the target and finiteness.  The lower
bound collects the tangents of the complementary loss at the partition
boundaries, the chain the partition builds once (Partition._chain) from the Phi
and phi at its limits that its certifying pass computed, and which that
certification proves; the upper bound is that chain lifted by its maximum error
or a chord construction over caller-chosen breakpoints, validated here.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import (BoundViolationError, DomainError, InvalidParameterError, _choice, _count,
                     _instance, _real)
from .gaussian import inv_cdf
from .loss_core import NormalParams, STANDARD, closs_std
from .partition import Partition

__all__ = [
    "PiecewiseLinear",
    "BoundReport",
    "build_lower",
    "build_upper_chord",
    "build_report",
    "evaluate",
    "max_gap",
]

# BoundReport's spread limit: the lesser of the two
_EQUAL_ERROR_SPREAD = 1e-6
_EQUAL_ERROR_RELATIVE = 1e-5


@dataclass(frozen=True)
class PiecewiseLinear:
    """An ordered chain of linear segments, continuous at its breakpoints.

    Its fields are its six constructor arguments.  The std_* fields hold the
    standard-scale closs chain, whatever the target (one more segment than
    breakpoints; outer segments unbounded, of slopes 0 and 1), as tuples of
    Python floats whatever sequence was passed.  The derived attributes
    breakpoints, slopes and intercepts hold its domain rows at scale and
    target, which construction computes once (_place) and rejects unless every
    value is finite.  The builders return views of chains validated here.
    """

    std_breakpoints: tuple[float, ...]
    std_slopes: tuple[float, ...]
    std_intercepts: tuple[float, ...]
    kind: str  # "lower" | "upper"
    target: str  # "closs" | "loss"
    scale: NormalParams

    def __post_init__(self):
        _check_view(self.scale, self.target)
        _choice(self.kind, ("lower", "upper"), "kind")
        bp, s, c = (_real(v, InvalidParameterError, "breakpoints, slopes and intercepts must be"
                          " flat sequences of int or float numbers", 1)
                    for v in (self.std_breakpoints, self.std_slopes, self.std_intercepts))
        if s.size != c.size or s.size != bp.size + 1:
            raise InvalidParameterError("need one slope/intercept pair per segment")
        if not np.all(np.isfinite(bp)) or np.any(bp[1:] <= bp[:-1]):
            raise InvalidParameterError("breakpoints must be finite and strictly increasing")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(c))):
            raise InvalidParameterError("slopes and intercepts must be finite")
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN fails the check
            jump = (s[1:] - s[:-1]) * bp + (c[1:] - c[:-1])
        if not np.max(np.abs(jump), initial=0.0) <= 1e-10:
            raise InvalidParameterError("adjacent segments must agree at breakpoints")
        if abs(s[0]) > 1e-12 or abs(s[-1] - 1.0) > 1e-12:
            raise InvalidParameterError("extreme slopes must be 0 and 1, the asymptotes of closs")
        if self.kind == "lower" and np.any(s[1:] <= s[:-1]):
            raise InvalidParameterError("lower-bound slopes must be strictly increasing")
        if self.kind == "upper" and np.any(s[1:] < s[:-1]):
            raise InvalidParameterError("upper-bound slopes must be nondecreasing")
        vars(self).update(std_breakpoints=tuple(bp.tolist()), std_slopes=tuple(s.tolist()),
                          std_intercepts=tuple(c.tolist()))
        _place(self)

    @property
    def n_segments(self) -> int:
        return len(self.std_slopes)

    def __call__(self, x: float) -> float:
        return evaluate(self, x)


def evaluate(pl: PiecewiseLinear, x: float) -> float:
    """Value at x of the row of the segment that holds x, found by binary search
    over the domain breakpoints; a breakpoint belongs to the segment on its right.

    x is a finite int or float scalar, and the value is a float.
    """
    _instance(pl, PiecewiseLinear, "pl")
    # a Python float, the common case, skips the dtype check and the conversion
    if type(x) is not float:
        x = _real(x, DomainError, "evaluate requires an int or float scalar x, got {type}", 0)
    if not math.isfinite(x):
        raise DomainError("evaluate requires finite x")
    idx = bisect_right(pl.breakpoints, x)
    return pl.slopes[idx] * x + pl.intercepts[idx]


def _place(pl: PiecewiseLinear, rows: PiecewiseLinear | None = None) -> PiecewiseLinear:
    """Set pl's domain rows by the one map of the module docstring and return pl;
    given rows, a placed chain with pl's breakpoints, slopes, scale and target,
    share its breakpoints and slopes.  Raises unless every value is finite."""
    mu, sigma = pl.scale.mu, pl.scale.sigma
    if rows is None:
        breakpoints = tuple(sigma * t + mu for t in pl.std_breakpoints)
        slopes = pl.std_slopes if pl.target == "closs" else tuple(s - 1.0 for s in pl.std_slopes)
    else:
        breakpoints, slopes = rows.breakpoints, rows.slopes
    intercepts = tuple(sigma * c - s * mu for s, c in zip(slopes, pl.std_intercepts))
    if not all(map(math.isfinite, breakpoints + intercepts)):
        raise InvalidParameterError(f"domain-scale breakpoints and intercepts must be finite"
                                    f" (mu={mu!r}, sigma={sigma!r})")
    vars(pl).update(breakpoints=breakpoints, slopes=slopes, intercepts=intercepts)
    return pl


def _view(partition: Partition, scale: NormalParams, target: str,
          lower: PiecewiseLinear | None = None) -> PiecewiseLinear:
    """partition's tangent chain, which certification proves (Partition._chain), placed at
    scale and target or, given its lower view there, lifted by max_error on that view's
    rows (_place); the map keeps it valid, so only scale, target and finiteness are checked."""
    _check_view(scale, target)
    _, slopes, tangents, lifted = partition._chain
    view = object.__new__(PiecewiseLinear)
    vars(view).update(std_breakpoints=partition.cond_means, std_slopes=slopes,
                      std_intercepts=tangents if lower is None else lifted,
                      kind="lower" if lower is None else "upper", target=target, scale=scale)
    return _place(view, lower)


def build_lower(partition: Partition, scale: NormalParams = STANDARD,
                target: str = "closs") -> PiecewiseLinear:
    """Tangent-collection lower bound with one segment per region plus one.

    In standard scale segment i is the tangent of the complementary loss
    at boundary b_i (slope Phi(b_i), intercept phi(b_i)); segment 0 is the
    zero function and the breakpoints fall at the conditional means.  The
    partition builds and proves it once; this is its view at scale and target.
    """
    return _view(_instance(partition, Partition, "partition"), scale, target)


def build_upper_chord(domain_breakpoints, scale: NormalParams = STANDARD,
                      target: str = "closs") -> PiecewiseLinear:
    """Chord upper bound over the compact regions between the breakpoints.

    Adjacent breakpoints are joined by the chord of the complementary
    loss; the unbounded extreme regions get the horizontal line through
    the first point and the unit-slope line through the last.
    """
    _check_view(scale, target)
    pts = _real(domain_breakpoints, InvalidParameterError,
                "breakpoints must be a sequence of numbers", 1)
    if pts.size == 0:
        raise InvalidParameterError("need at least one breakpoint")
    with np.errstate(over="ignore"):  # an overflow fails the check below
        t = (pts - scale.mu) / scale.sigma
        dt = np.diff(t) if np.all(np.isfinite(t)) else t
    # sigma > 0, so this holds of the breakpoints too
    if not np.all(np.isfinite(dt)) or np.any(t[1:] <= t[:-1]):
        raise InvalidParameterError("breakpoints must be finite and strictly increasing, and so"
                                    " must (x - mu) / sigma, with finite differences")
    v = np.atleast_1d(closs_std(t))
    alpha = np.diff(v) / dt
    return PiecewiseLinear(t, (0.0, *alpha.tolist(), 1.0),
                           (v[0], *(v[:-1] - alpha * t[:-1]).tolist(), v[-1] - t[-1]),
                           "upper", target, scale)


@dataclass(frozen=True)
class BoundReport:
    """A matched lower/upper bound pair with its error certificate.

    A report is its partition, scale and target: they are its fields and its
    only constructor arguments, so ==, hash and repr read nothing else.
    Construction rejects a partition whose breakpoint errors spread by more
    than 1e-6 or 1e-5 * max_error, and sets the derived attributes lower and
    upper, views of the partition's chains (see the module docstring).
    The lower bound's error peaks at its breakpoints, the rescaled
    conditional means; the upper bound's at upper_error_locations, the
    rescaled region boundaries and +-infinity.  Both peaks equal max_error,
    sigma times the partition's standard error.
    """

    partition: Partition
    scale: NormalParams = STANDARD
    target: str = "closs"

    def __post_init__(self):
        spread = _instance(self.partition, Partition, "partition")._chain[0]
        limit = min(_EQUAL_ERROR_SPREAD, _EQUAL_ERROR_RELATIVE * self.partition.max_error)
        if spread > limit:
            raise InvalidParameterError(
                f"shift construction needs an equal-error partition (spread {spread:.3e} >"
                f" {limit:.3e}, min({_EQUAL_ERROR_SPREAD:g}, {_EQUAL_ERROR_RELATIVE:g}*max_error))")
        lower = _view(self.partition, self.scale, self.target)
        # the upper chain is the lower one lifted, so only its intercepts differ
        vars(self).update(lower=lower, upper=_view(self.partition, self.scale, self.target, lower))

    @property
    def max_error(self) -> float:
        return self.scale.sigma * self.partition.max_error

    @property
    def upper_error_locations(self) -> tuple[float, ...]:
        mu, sigma = self.scale.mu, self.scale.sigma
        return (-math.inf, *(sigma * b + mu for b in self.partition.upper_limits[:-1]), math.inf)


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
    to the outer intercepts.  These points are evaluated on the standard
    closs chain, whose gap is the loss target's too (the shear moves the
    bound and the function alike), and the result is scaled by sigma.  Raises BoundViolationError when the
    bound crosses the exact function by more than min(1e-12 sigma, 1e-9).
    Returns (gap, location); the location is -inf or +inf when the gap is
    largest in a limit.  n_grid is None or a grid size >= 2, which is
    ignored, so that calls passing a grid size keep working.
    """
    _instance(pl, PiecewiseLinear, "pl")
    if n_grid is not None:
        _count(n_grid, 2, "n_grid must be None or an integer >= 2")
    s, c, bp = map(np.asarray, (pl.std_slopes, pl.std_intercepts, pl.std_breakpoints))
    # tangency abscissae clipped to segment i = [lo[i], hi[i]]; a slope of
    # 0 or 1 clips to an end, and an infinite end is one of the limits
    lo, hi = np.concatenate(([-np.inf], bp)), np.concatenate((bp, [np.inf]))
    inside = (s > 0.0) & (s < 1.0)
    tangent = np.where(s <= 0.0, -np.inf, np.inf)
    tangent[inside] = inv_cdf(s[inside])
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


def _check_view(scale: NormalParams, target: str):
    _instance(scale, NormalParams, "scale")
    _choice(target, ("closs", "loss"), "target")
