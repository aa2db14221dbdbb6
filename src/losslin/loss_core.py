"""First-order loss function and its complement.

For a random variable W and threshold x the loss function is
E[max(W - x, 0)] (expected overshoot above x) and the complementary loss
function is E[max(x - W, 0)] (expected undershoot).  Both are convex in x
and tied together by

    loss(x) = closs(x) - (x - E[W]),

which lets every result be stated for one of the two and transferred to
the other.  For normal W both admit closed forms in terms of the standard
normal pdf/cdf; for anything else this module offers a quadrature oracle
built on the identity closs(x) = integral of the cdf up to x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import gaussian
from .errors import (_ARGUMENTS, DomainError, InvalidParameterError, QuadratureError,
                     _instance, _real)

__all__ = [
    "NormalParams",
    "GenericDistribution",
    "STANDARD",
    "closs_std",
    "loss_std",
    "closs",
    "loss",
    "closs_generic",
    "adaptive_simpson",
]


@dataclass(frozen=True)
class NormalParams:
    """Mean and standard deviation of a normal random variable, stored as floats
    (a mean of -0.0 as 0.0, so equal scales export equal bytes)."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        mu, sigma = (_real(v, InvalidParameterError, "mu and sigma must be numbers", 0)
                     for v in (self.mu, self.sigma))
        if not (math.isfinite(mu) and math.isfinite(sigma)):
            raise InvalidParameterError("mu and sigma must be finite")
        if sigma <= 0.0:
            raise InvalidParameterError(f"sigma must be positive, got {self.sigma}")
        vars(self).update(mu=mu + 0.0, sigma=sigma)


STANDARD = NormalParams(0.0, 1.0)


def _finite(x) -> np.ndarray:
    arr = _real(x, DomainError, _ARGUMENTS)
    if not np.all(np.isfinite(arr)):
        raise DomainError("loss functions require finite arguments")
    return arr


def _closs(t: np.ndarray, sigma: float = 1.0):
    """sigma * (phi(t) + t * Phi(t)) of a finite float array t; a float if t is 0-d.
    Below -38 the sum is all cancellation and its limit 0 is stored; above 38
    Phi(t) is exactly 1 and phi(t) <= 1.1e-314, so the sum is t already."""
    big, small = gaussian._cdf_phi(t, np.empty_like(t), np.empty_like(t))
    val = sigma * np.where(t < -gaussian.SATURATION, 0.0, small + big * t)
    return float(val) if t.ndim == 0 else val


def closs_std(x):
    """Complementary loss of the standard normal: phi(x) + x * Phi(x).

    Strictly positive for all finite x, tending to 0 as x -> -inf and to
    x as x -> +inf.  Beyond |x| > 38 those limits are returned exactly.
    """
    return _closs(_finite(x))


def loss_std(x):
    """Loss of the standard normal: phi(x) - x * (1 - Phi(x)).

    Computed as closs_std(-x), which is the same quantity by symmetry of
    the normal; the survival factor 1 - Phi(x) then comes out as Phi(-x),
    free of cancellation in the right tail.
    """
    return _closs(-_finite(x))


def closs(x, params: NormalParams):
    """Complementary loss of a normal(mu, sigma): sigma * closs_std((x - mu)/sigma)."""
    return _closs(_standardize(x, params), params.sigma)


def loss(x, params: NormalParams):
    """Loss of a normal(mu, sigma): sigma * loss_std((x - mu)/sigma)."""
    return _closs(-_standardize(x, params), params.sigma)


def _standardize(x, params: NormalParams) -> np.ndarray:
    _instance(params, NormalParams, "params")
    with np.errstate(over="ignore"):
        t = (_finite(x) - params.mu) / params.sigma
    if not np.all(np.isfinite(t)):
        raise DomainError("(x - mu) / sigma overflows a double")
    return t


# ---------------------------------------------------------------------------
# Generic distributions and the quadrature oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenericDistribution:
    """A distribution described by its cdf, mean and support.

    The mean anchors the oracle's tail cutoffs, so it must lie in the
    support.  The cdf callable must be reentrant.  mean and the support
    limits are stored as floats.
    """

    cdf: Callable[[float], float]
    mean: float
    support_low: float = -math.inf
    support_high: float = math.inf

    def __post_init__(self):
        if not callable(self.cdf):
            raise InvalidParameterError("cdf must be callable")
        mean, low, high = (
            _real(v, InvalidParameterError, "mean and support limits must be numbers", 0)
            for v in (self.mean, self.support_low, self.support_high))
        if not math.isfinite(mean):
            raise InvalidParameterError("mean must be finite")
        if not low < high:
            raise InvalidParameterError("support_low must lie below support_high")
        if not low <= mean <= high:
            raise InvalidParameterError("mean must lie in the support")
        vars(self).update(mean=mean, support_low=low, support_high=high)


def _tolerance(tol) -> float:
    tol = _real(tol, InvalidParameterError, "tol must be an int or float number", 0)
    if not tol > 0.0:
        raise InvalidParameterError("tol must be positive")
    return tol


def adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    """Integrate f over [a, b] by adaptive Simpson subdivision.

    Splits intervals until the local Richardson error indicator drops
    below the (propagated) tolerance.  Raises QuadratureError at the first
    interval still unresolved 48 halvings deep; its estimate is the whole
    integral, with the intervals not yet visited at their coarse Simpson
    values.  a <= b are finite; an empty interval integrates to 0.0.
    """
    if not callable(f):
        raise InvalidParameterError("f must be callable")
    a, b = (_real(v, DomainError, "integration limits must be finite numbers", 0) for v in (a, b))
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration limits must be finite numbers")
    tol = _tolerance(tol)
    if b < a:
        raise DomainError("integration limits must satisfy a <= b")
    if b == a:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_step(f, a, b, fa, fm, fb, whole, tol, 48, 0.0)


def _simpson_step(f, a, b, fa, fm, fb, whole, tol, depth, outside) -> float:
    """Simpson's integral over [a, b]; outside is the estimate of the rest of
    the integral, the finished intervals plus those not yet visited."""
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureError(
            f"adaptive Simpson exhausted its subdivision budget on [{a}, {b}]",
            estimate=outside + (left + right + delta / 15.0),
            achieved=abs(delta) / 15.0,
        )
    done = _simpson_step(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1, outside + right)
    return done + _simpson_step(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1, outside + done)


def _cutoff(dist: GenericDistribution, tol: float, side: float) -> float:
    """The lower (side -1) or upper (side +1) stop of closs_generic's integral."""
    limit = dist.support_low if side < 0 else dist.support_high
    if math.isfinite(limit):
        return limit
    for k in range(65):
        t = dist.mean + side * 2.0**k
        if (dist.cdf(t) if side < 0 else 1.0 - dist.cdf(t)) <= min(tol, 1e-13):
            break
    return t


def closs_generic(x: float, dist: GenericDistribution, tol: float = 1e-10) -> float:
    """Complementary loss by adaptive quadrature of the cdf up to x.

    This is the independent evaluation route used to validate the closed
    forms; it never calls them.  On each side the integral stops at the
    finite support limit, else at the first of mean -/+ 1, 2, 4, ... where
    the cdf is within min(tol, 1e-13) of 0 resp. 1, or at mean -/+ 2**64;
    beyond the upper stop the cdf counts as 1.  Absolute accuracy is tol
    plus the truncated tails; tails as heavy as |u|**-3 keep that error
    above tol (Student-t(3): 5e-10 at tol 1e-10).  x is a finite int or
    float scalar.
    """
    tol = _tolerance(tol)
    _instance(dist, GenericDistribution, "dist")
    x = _real(x, DomainError, "closs_generic requires an int or float scalar x, got {type}", 0)
    if not math.isfinite(x):
        raise DomainError("closs_generic requires finite x")
    lo = _cutoff(dist, tol, -1.0)
    if x <= lo:
        return 0.0
    hi = min(x, _cutoff(dist, tol, 1.0))
    return adaptive_simpson(dist.cdf, lo, hi, tol) + (x - hi)
