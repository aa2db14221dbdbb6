"""Standard normal density, distribution and quantile functions.

These are the numeric workhorses of the package: every partition solve and
every bound evaluation goes through them, so they are implemented with
double-precision accuracy (absolute error well below 1e-12 on the ranges
that matter) and accept int or float scalars and arrays alike, by the
rule in losslin.errors.  Scalar input returns a plain ``float``.

Phi comes from scipy.special.erfc and its inverse is scipy.special.ndtri.
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
    is bit for bit what phi returns.  Every step writes through big and
    small, so the clipped x is the one temporary."""
    # phi's operations in their order; the clip at 40 changes only saturated Phi
    t = np.maximum(x, -40.0, out=np.empty_like(x))
    np.minimum(t, 40.0, out=t)
    np.divide(t, -_SQRT2, out=big)
    special.erfc(big, out=big)
    np.multiply(big, 0.5, out=big)
    np.multiply(-0.5, t, out=small)
    np.multiply(small, t, out=small)
    # (-t/2) t rounds to <= -722 exactly when |t| >= 38; saturation is rare
    if np.minimum.reduce(small, axis=None, initial=0.0) <= -0.5 * SATURATION * SATURATION:
        big[t <= -SATURATION], big[t >= SATURATION] = 0.0, 1.0
    np.exp(small, out=small)
    np.multiply(_INV_SQRT_2PI, small, out=small)
    return big, small


def inv_cdf(p):
    """Quantile function of the standard normal, scipy.special.ndtri.

    Measured within 7e-16 of a 60-digit reference, relative to max(|x|, 1),
    from subnormal p to 1 - 2**-53 (scipy 1.17), and inv_cdf(1 - p) ==
    -inv_cdf(p) wherever 1 - p is exact.  Requires 0 < p < 1.
    """
    arr = _real(p, DomainError, _ARGUMENTS)
    if not ((arr > 0.0) & (arr < 1.0)).all():  # NaN fails both comparisons
        raise DomainError("inv_cdf requires 0 < p < 1")
    out = special.ndtri(arr)
    return float(out) if arr.ndim == 0 else out
