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
from .errors import DomainError, InvalidParameterError, QuadratureError

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
    """Mean and standard deviation of a normal random variable."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        try:
            finite = math.isfinite(self.mu) and math.isfinite(self.sigma)
        except TypeError:
            raise InvalidParameterError("mu and sigma must be numbers") from None
        if not finite:
            raise InvalidParameterError("mu and sigma must be finite")
        if self.sigma <= 0.0:
            raise InvalidParameterError(f"sigma must be positive, got {self.sigma}")


STANDARD = NormalParams(0.0, 1.0)


def _validated(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("loss functions require finite arguments")
    return arr, arr.ndim == 0


def closs_std(x):
    """Complementary loss of the standard normal: phi(x) + x * Phi(x).

    Strictly positive for all finite x, tending to 0 as x -> -inf and to
    x as x -> +inf.  Beyond |x| > 38 the closed form is all cancellation,
    so those limits are returned exactly.
    """
    arr, scalar = _validated(x)
    clipped = np.clip(arr, -gaussian.SATURATION, gaussian.SATURATION)
    val = (gaussian._INV_SQRT_2PI * np.exp(-0.5 * clipped * clipped)
           + gaussian._cdf_unchecked(clipped) * clipped)
    val = np.where(arr < -gaussian.SATURATION, 0.0, val)
    val = np.where(arr > gaussian.SATURATION, arr, val)
    return float(val) if scalar else val


def loss_std(x):
    """Loss of the standard normal: phi(x) - x * (1 - Phi(x)).

    Computed as closs_std(-x), which is the same quantity by symmetry of
    the normal; the survival factor 1 - Phi(x) then comes out as Phi(-x),
    free of cancellation in the right tail.
    """
    return closs_std(-np.asarray(x, dtype=float))


def closs(x, params: NormalParams):
    """Complementary loss of a normal(mu, sigma): sigma * closs_std((x - mu)/sigma)."""
    _check_params(params)
    return params.sigma * closs_std(_standardize(x, params))


def loss(x, params: NormalParams):
    """Loss of a normal(mu, sigma): sigma * loss_std((x - mu)/sigma)."""
    _check_params(params)
    return params.sigma * loss_std(_standardize(x, params))


def _check_params(params: NormalParams):
    if not isinstance(params, NormalParams):
        raise InvalidParameterError("params must be a NormalParams instance")


def _standardize(x, params: NormalParams):
    arr, scalar = _validated(x)
    t = (arr - params.mu) / params.sigma
    return float(t) if scalar else t


# ---------------------------------------------------------------------------
# Generic distributions and the quadrature oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenericDistribution:
    """A distribution described by its cdf, mean and support.

    The mean is an explicit field (not derived from the cdf) because the
    loss/closs relationship identity consumes it directly; deriving it
    numerically would stack a second error source on top of quadrature.
    The cdf callable must be reentrant.
    """

    cdf: Callable[[float], float]
    mean: float
    support_low: float = -math.inf
    support_high: float = math.inf

    def __post_init__(self):
        if not callable(self.cdf):
            raise InvalidParameterError("cdf must be callable")
        if not math.isfinite(self.mean):
            raise InvalidParameterError("mean must be finite")
        if not self.support_low < self.support_high:
            raise InvalidParameterError("support_low must lie below support_high")


def adaptive_simpson(f, a: float, b: float, tol: float, max_depth: int = 48) -> float:
    """Integrate f over [a, b] by adaptive Simpson subdivision.

    Splits intervals until the local Richardson error indicator drops
    below the (propagated) tolerance.  Raises QuadratureError, carrying
    the best estimate, if the depth budget is exhausted anywhere.
    """
    if not (tol > 0.0):
        raise InvalidParameterError("tol must be positive")
    if b <= a:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_step(f, a, b, fa, fm, fb, whole, tol, max_depth)


def _simpson_step(f, a, b, fa, fm, fb, whole, tol, depth) -> float:
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
            estimate=left + right + delta / 15.0,
            achieved=abs(delta) / 15.0,
        )
    return (_simpson_step(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
            + _simpson_step(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1))


def _bracket_quantile(dist: GenericDistribution, p: float) -> float:
    """Locate the p-quantile of dist by bracket expansion plus bisection."""
    lo, hi = dist.mean - 1.0, dist.mean + 1.0
    lo = max(lo, dist.support_low)
    hi = min(hi, dist.support_high)
    for _ in range(200):
        if dist.cdf(lo) <= p:
            break
        lo = max(dist.mean - 2.0 * (dist.mean - lo), dist.support_low)
        if lo == dist.support_low:
            break
    for _ in range(200):
        if dist.cdf(hi) >= p:
            break
        hi = min(dist.mean + 2.0 * (hi - dist.mean), dist.support_high)
        if hi == dist.support_high:
            break
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if dist.cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _lower_cutoff(dist: GenericDistribution, tol: float) -> float:
    """Truncation point for the infinite lower integration limit.

    Uses a quartile-based scale estimate and walks 12 scales below the
    mean (further if the cdf has not yet decayed), so the discarded mass
    integral is negligible against tol.
    """
    if math.isfinite(dist.support_low):
        return dist.support_low
    q25 = _bracket_quantile(dist, 0.25)
    q75 = _bracket_quantile(dist, 0.75)
    scale = (q75 - q25) / 1.349
    if scale <= 0.0 or not math.isfinite(scale):
        scale = 1.0
    lo = dist.mean - 12.0 * scale
    for _ in range(60):
        if dist.cdf(lo) <= min(tol, 1e-13):
            return lo
        lo -= 6.0 * scale
    return lo


def closs_generic(x: float, dist: GenericDistribution, tol: float = 1e-10) -> float:
    """Complementary loss by adaptive quadrature of the cdf up to x.

    This is the independent evaluation route used to validate the closed
    forms; it never calls them.  Absolute accuracy is tol (plus the
    negligible truncated tail when the support is unbounded below).
    """
    if not (tol > 0.0):
        raise InvalidParameterError("tol must be positive")
    if not math.isfinite(x):
        raise DomainError("closs_generic requires finite x")
    lo = _lower_cutoff(dist, tol)
    if x <= lo:
        return 0.0
    hi = min(x, dist.support_high)
    value = adaptive_simpson(dist.cdf, lo, hi, tol)
    if x > dist.support_high:
        value += x - dist.support_high
    return value
