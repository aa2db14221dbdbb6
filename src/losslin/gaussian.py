"""Standard normal density, distribution and quantile functions.

These are the numeric workhorses of the package: every partition solve and
every bound evaluation goes through them, so they are implemented with
double-precision accuracy (absolute error well below 1e-12 on the ranges
that matter) and accept int or float scalars and arrays alike, by the
rule in losslin.errors.  Scalar input returns a plain ``float``.

The private kernel _cdf_phi gives Phi and phi of an array in one call;
cdf is its Phi half, and a pass of region statistics in the solve makes two.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import _ARGUMENTS, DomainError, _real

__all__ = ["cdf", "inv_cdf", "phi"]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# |x| beyond this is unresolvable in double precision: Phi(x) rounds to 0 or 1.
SATURATION = 38.0


def phi(x):
    """Density of the standard normal, (1/sqrt(2*pi)) * exp(-x^2/2).

    Raises DomainError for non-finite input.
    """
    arr = _real(x, DomainError, _ARGUMENTS)
    if not np.all(np.isfinite(arr)):
        raise DomainError("phi requires finite input")
    # phi(+/-40) is exactly 0.0 already; clipping keeps x^2 from overflowing
    t = arr.clip(-40.0, 40.0)
    out = _INV_SQRT_2PI * np.exp(-0.5 * t * t)
    return float(out) if arr.ndim == 0 else out


def cdf(x):
    """Distribution function of the standard normal.

    Backed by the complementary error function, which keeps the absolute
    error at the 1e-16 level across [-8, 8].  +/-infinity are accepted as
    limits; finite arguments beyond +/-38 saturate to exactly 0 or 1.
    Raises DomainError for NaN input.  This is the Phi half of _cdf_phi.
    """
    arr = _real(x, DomainError, _ARGUMENTS)
    if np.any(np.isnan(arr)):
        raise DomainError("cdf does not accept NaN")
    out = _cdf_phi(arr, np.empty_like(arr), np.empty_like(arr))[0]
    return float(out) if arr.ndim == 0 else out


def _cdf_phi(x: np.ndarray, big: np.ndarray, small: np.ndarray):
    """Write Phi(x) into big and phi(x) into small for a float array x without
    NaN; returns both.  cdf is the Phi half, and phi(x) of finite x
    is bit for bit what phi returns."""
    # phi's operations in their order; the clip at 40 changes only saturated Phi
    t = np.minimum(np.maximum(x, -40.0), 40.0)
    np.multiply(special.erfc(t / -_SQRT2), 0.5, out=big)
    np.multiply(-0.5 * t, t, out=small)
    # (-t/2) t rounds to <= -722 exactly when |t| >= 38; saturation is rare
    if np.minimum.reduce(small, axis=None, initial=0.0) <= -0.5 * SATURATION * SATURATION:
        big[t <= -SATURATION], big[t >= SATURATION] = 0.0, 1.0
    np.multiply(_INV_SQRT_2PI, np.exp(small), out=small)
    return big, small


# Rational quantile estimate (relative error ~1.15e-9), refined below by
# Newton steps so the final accuracy is limited only by cdf itself.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)

_P_LOW = 0.02425


def _quantile_estimate(p: np.ndarray) -> np.ndarray:
    out = np.empty_like(p)

    low = p < _P_LOW
    high = p > 1.0 - _P_LOW
    mid = ~(low | high)

    if mid.any():
        q = p[mid] - 0.5
        r = q * q
        num = ((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]
        den = ((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0
        out[mid] = q * num / den

    def _tail(q):
        r = np.sqrt(-2.0 * np.log(q))
        num = ((((_C[0] * r + _C[1]) * r + _C[2]) * r + _C[3]) * r + _C[4]) * r + _C[5]
        den = (((_D[0] * r + _D[1]) * r + _D[2]) * r + _D[3]) * r + 1.0
        return num / den

    if low.any():
        out[low] = _tail(p[low])
    if high.any():
        out[high] = -_tail(1.0 - p[high])
    return out


def inv_cdf(p):
    """Quantile function of the standard normal.

    A rational initial estimate is polished with two Newton steps using
    phi as the derivative, which pins |cdf(inv_cdf(p)) - p| below 1e-12
    regardless of the estimate's own accuracy.  Requires 0 < p < 1.
    """
    arr = _real(p, DomainError, _ARGUMENTS)
    if not ((arr > 0.0) & (arr < 1.0)).all():  # NaN fails both comparisons
        raise DomainError("inv_cdf requires 0 < p < 1")
    target = np.atleast_1d(arr)
    x = _quantile_estimate(target)
    for _ in range(2):
        # |x| < 38.5 here, so the kernel's clip at 40 changes nothing
        big, dens = _cdf_phi(x, np.empty_like(x), np.empty_like(x))
        # skip refinement where the density underflows; the tail estimate
        # is already far beyond any representable cdf resolution there
        safe = dens > 1e-280
        x = x - ((big - target) / dens if safe.all()
                 else np.where(safe, (big - target) / np.where(safe, dens, 1.0), 0.0))
    out = x.reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out
