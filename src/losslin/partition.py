"""Minimax support partitions of the standard normal.

A partition splits the real line into N adjacent regions.  Replacing the
standard normal by its conditional mean within each region turns the
complementary loss function into a piecewise-linear under-estimator whose
worst error sits at the region conditional means.  The partition is
minimax-optimal exactly when those breakpoint errors are all equal, which
yields a small nonlinear system in the interior region boundaries.  This
module assembles and solves that system.

Region bookkeeping for boundaries a_i < b_i (a_1 = -inf, b_N = +inf):

    mass        p_i = Phi(b_i) - Phi(a_i)
    cond. mean  m_i = (phi(a_i) - phi(b_i)) / p_i
    error       e_i = closs_std(m_i) - (Phi(b_i) * m_i + phi(b_i))

The solver exploits the symmetry of the optimum: only the strictly
negative interior boundaries and the common error are unknowns, the rest
are mirrored (with an exact zero in the middle when the interior count is
odd).  Each e_i depends only on its own region's two boundaries and has
closed-form partials, so the Jacobian of the residuals e_i - eps is lower
bidiagonal plus one column of -1s, and an exact Newton step costs O(N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gaussian
from .errors import InvalidParameterError, SolverError
from .loss_core import closs_std

__all__ = [
    "Partition",
    "BreakpointErrors",
    "breakpoint_errors",
    "solve_minimax",
    "parameter_table",
    "check_tol",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-10

_MAX_ITER = 200
_MAX_HALVINGS = 60


def _region_stats(upper: np.ndarray):
    """masses, conditional means and breakpoint errors for boundaries b_1..b_N.

    b_N must be +inf, and callers reject non-finite interior boundaries
    first (Partition and _ordered do).  Phi and phi are evaluated once per
    interior boundary and padded with their limits at -inf and +inf.  A
    region without positive mass gets NaN mean and error, so the solver
    line search can reject bad steps instead of crashing.
    """
    inner = upper[:-1]
    big_phi = np.concatenate(([0.0], gaussian.cdf(inner), [1.0]))
    small_phi = np.concatenate(([0.0], gaussian.phi(inner), [0.0]))
    big_phi_hi, small_phi_hi = big_phi[1:], small_phi[1:]
    p = big_phi_hi - big_phi[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        m = (small_phi[:-1] - small_phi_hi) / p
    bad = ~(p > 0.0)
    if np.any(bad):
        m = np.where(bad, np.nan, m)
    e = np.where(np.isfinite(m),
                 closs_std(np.nan_to_num(m)) - (big_phi_hi * m + small_phi_hi),
                 np.nan)
    return p, m, e


@dataclass(frozen=True)
class Partition:
    """N adjacent regions of the standard normal support, given by their boundaries.

    upper_limits are b_1 < ... < b_N with b_N = +inf, and they are the only
    constructor argument.  Construction validates them and derives the rest
    from one pass of region statistics: masses and cond_means follow the
    formulas in the module docstring, max_error is the largest breakpoint
    error, and the breakpoint errors themselves are kept for
    breakpoint_errors.  Instances can therefore be trusted downstream.
    """

    upper_limits: tuple[float, ...]
    masses: tuple[float, ...] = field(init=False)
    cond_means: tuple[float, ...] = field(init=False)
    max_error: float = field(init=False)
    _errors: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.upper_limits)
        if n < 1:
            raise InvalidParameterError("a partition needs at least one region")
        b = np.asarray(self.upper_limits, dtype=float)
        if not math.isinf(b[-1]) or b[-1] < 0:
            raise InvalidParameterError("the last upper limit must be +inf")
        if n > 1 and (not np.all(np.isfinite(b[:-1])) or np.any(np.diff(b) <= 0)):
            raise InvalidParameterError("upper limits must be finite and strictly increasing")

        p, m, e = _region_stats(b)
        # a region without positive mass has m = e = NaN
        if not np.all(np.isfinite(e)):
            raise InvalidParameterError("boundaries produce an empty or degenerate region")
        if abs(p.sum() - 1.0) > 1e-12:
            raise InvalidParameterError("region masses must sum to one")
        if np.any(np.diff(m) <= 0):
            raise InvalidParameterError("conditional means must be strictly increasing")
        lower = np.concatenate(([-np.inf], b[:-1]))
        if np.any(m <= lower) or np.any(m >= b):
            raise InvalidParameterError("each conditional mean must lie inside its region")
        if abs(float(np.dot(p, m))) > 1e-10:
            raise InvalidParameterError("the discretisation must preserve the zero mean")
        object.__setattr__(self, "upper_limits", tuple(b.tolist()))
        object.__setattr__(self, "masses", tuple(p.tolist()))
        object.__setattr__(self, "cond_means", tuple(m.tolist()))
        object.__setattr__(self, "max_error", float(np.max(e)))
        object.__setattr__(self, "_errors", tuple(e.tolist()))

    @property
    def n_regions(self) -> int:
        return len(self.upper_limits)

    @property
    def lower_limits(self) -> tuple[float, ...]:
        return (-math.inf,) + self.upper_limits[:-1]

    @classmethod
    def from_boundaries(cls, interior) -> "Partition":
        """Build a partition from its finite interior boundaries (may be empty).

        Same as Partition(upper_limits) with +inf appended as the last limit.
        """
        return cls(tuple(interior) + (math.inf,))


@dataclass(frozen=True)
class BreakpointErrors:
    """Per-breakpoint approximation errors of a partition's lower bound."""

    values: tuple[float, ...]

    @property
    def spread(self) -> float:
        return max(self.values) - min(self.values)


def breakpoint_errors(partition: Partition) -> BreakpointErrors:
    """Errors at all N breakpoints (the region conditional means).

    These are the errors the partition was certified with on construction.
    """
    return BreakpointErrors(values=partition._errors)


# ---------------------------------------------------------------------------
# Equal-error solve
# ---------------------------------------------------------------------------

def _expand_symmetric(neg: np.ndarray, n_regions: int) -> np.ndarray:
    """Full interior boundary vector from the strictly negative unknowns."""
    k = n_regions - 1
    parts = [neg]
    if k % 2 == 1:
        parts.append(np.zeros(1))
    parts.append(-neg[::-1])
    return np.concatenate(parts)


def _symmetric_stats(neg: np.ndarray, n_regions: int):
    """Upper limits b_1..b_N of the symmetric point and their region statistics."""
    upper = np.concatenate((_expand_symmetric(neg, n_regions), [np.inf]))
    p, m, e = _region_stats(upper)
    return upper, p, m, e


def _reduced_jacobian(upper: np.ndarray, p: np.ndarray, m: np.ndarray, n_regions: int):
    """Exact Jacobian of e_1..e_h, h = ceil(N/2), in the negative boundaries.

    Each e_i depends only on its own region's boundaries.  With
    dPhi = Phi(m_i) - Phi(b_i), the chain rule through
    dm_i/db_i = phi(b_i)(b_i - m_i)/p_i, dm_i/db_{i-1} = phi(b_{i-1})(m_i - b_{i-1})/p_i
    and closs_std' = Phi gives

        de_i/db_i     = (dPhi / p_i + 1) phi(b_i) (b_i - m_i)
        de_i/db_{i-1} = dPhi phi(b_{i-1}) (m_i - b_{i-1}) / p_i

    Returns (diag, sub, mid) as read by _newton_step: diag[i] = de_i/db_i
    and sub[i] = de_i/db_{i-1} for the rows i < h - 1 (sub[0] = 0, as the
    first region has no finite lower boundary).  The middle region's upper
    limit mirrors the last unknown when N is odd (b_h = -b_{h-1}, so
    mid = de/da - de/db) and is the fixed zero when N is even (mid = de/da).
    """
    rows = (n_regions + 1) // 2
    b, p, m = upper[:rows], p[:rows], m[:rows]
    d_phi = gaussian.cdf(m) - gaussian.cdf(b)
    d_upper = (d_phi / p + 1.0) * gaussian.phi(b) * (b - m)
    a = b[:-1]
    d_lower = np.concatenate(([0.0], d_phi[1:] * gaussian.phi(a) * (m[1:] - a) / p[1:]))
    mid = d_lower[-1] - d_upper[-1] if n_regions % 2 else d_lower[-1]
    return d_upper[:-1], d_lower[:-1], float(mid)


def _newton_step(diag, sub, mid: float, r: np.ndarray):
    """Solve J (db, d_eps) = -r for the symmetry-reduced equal-error system.

    Row i < n reads  sub[i] db_{i-1} + diag[i] db_i - d_eps = -r_i  (sub[0]
    multiplies nothing); the middle row n reads  mid db_{n-1} - d_eps = -r_n.
    Forward substitution writes db = u + v d_eps, and the middle row then
    fixes d_eps.  O(n) time and memory.
    """
    n = len(diag)
    u, v = [0.0] * n, [0.0] * n
    u_prev = v_prev = 0.0
    for i, (d, s, ri) in enumerate(zip(diag.tolist(), sub.tolist(), r.tolist())):
        u_prev = (-ri - s * u_prev) / d
        v_prev = (1.0 - s * v_prev) / d
        u[i], v[i] = u_prev, v_prev
    d_eps = (-float(r[n]) - mid * u_prev) / (mid * v_prev - 1.0)
    return np.array(u) + d_eps * np.array(v), d_eps


def _ordered(neg: np.ndarray, n_regions: int) -> bool:
    interior = _expand_symmetric(neg, n_regions)
    return bool(np.all(np.isfinite(interior)) and np.all(np.diff(interior) > 0))


def check_tol(tol: float) -> float:
    """Return tol if it is a usable solver tolerance: positive and finite."""
    if not 0.0 < tol < math.inf:
        raise InvalidParameterError("tol must be a positive finite number")
    return tol


def solve_minimax(n_regions: int, tol: float = DEFAULT_TOL) -> Partition:
    """Solve the equal-error system for an N-region minimax partition.

    Unknowns are the strictly negative interior boundaries plus the common
    error eps; the zero middle boundary (when the interior count is odd)
    and the positive half are generated by symmetry, which enforces the
    symmetric-optimum property exactly.  The residuals e_i - eps over the
    ceil(N/2) symmetry-distinct breakpoints form a square system whose
    exact Jacobian is lower bidiagonal plus a column of -1s, so each Newton
    step costs O(N).  A monotone line search rejects non-finite or
    unordered trial points; iteration stops once the residuals e_1 - e_k
    over all breakpoints have norm <= tol.  N = 1 and N = 2 are returned
    analytically.
    """
    if not isinstance(n_regions, int) or n_regions < 1:
        raise InvalidParameterError(f"n_regions must be a positive integer, got {n_regions!r}")
    check_tol(tol)

    if n_regions == 1:
        return Partition.from_boundaries(())
    if n_regions == 2:
        return Partition.from_boundaries((0.0,))

    rows = (n_regions + 1) // 2
    # equal-probability quantiles start inside the basin of attraction
    neg = gaussian.inv_cdf(np.arange(1, rows) / n_regions)
    neg = np.atleast_1d(np.asarray(neg, dtype=float))

    upper, p, m, e = _symmetric_stats(neg, n_regions)
    eps = float(np.mean(e[:rows]))
    r = e[:rows] - eps
    norm2 = float(r @ r)

    for _ in range(_MAX_ITER):
        if _full_residual_norm(e) <= tol:
            return Partition.from_boundaries(_expand_symmetric(neg, n_regions))

        diag, sub, mid = _reduced_jacobian(upper, p, m, n_regions)
        delta, d_eps = _newton_step(diag, sub, mid, r)

        step = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = neg + step * delta
            if _ordered(trial, n_regions):
                t_upper, t_p, t_m, t_e = _symmetric_stats(trial, n_regions)
                t_eps = eps + step * d_eps
                r_trial = t_e[:rows] - t_eps
                trial_norm2 = float(r_trial @ r_trial)
                if math.isfinite(trial_norm2) and trial_norm2 < norm2:
                    neg, eps, r, norm2 = trial, t_eps, r_trial, trial_norm2
                    upper, p, m, e = t_upper, t_p, t_m, t_e
                    break
            step *= 0.5
        else:
            # the search is monotone, so the current point is the best seen
            raise SolverError(
                f"line search stalled for {n_regions} regions",
                best=_expand_symmetric(neg, n_regions),
                residual=_full_residual_norm(e),
            )

    if _full_residual_norm(e) <= tol:
        return Partition.from_boundaries(_expand_symmetric(neg, n_regions))
    raise SolverError(
        f"no convergence within {_MAX_ITER} iterations for {n_regions} regions",
        best=_expand_symmetric(neg, n_regions),
        residual=_full_residual_norm(e),
    )


def _full_residual_norm(e: np.ndarray) -> float:
    """Norm of e_1 - e_k over all breakpoints k = 2..N."""
    return float(np.linalg.norm(e[0] - e[1:]))


def parameter_table(max_segments: int, tol: float = DEFAULT_TOL) -> list[Partition]:
    """Minimax partitions for every segment count 2..max_segments.

    Segment count refers to the piecewise-linear lower bound, which has
    one segment more than the partition has regions.
    """
    if not isinstance(max_segments, int) or max_segments < 2:
        raise InvalidParameterError("max_segments must be an integer >= 2")
    rows = []
    for segments in range(2, max_segments + 1):
        try:
            rows.append(solve_minimax(segments - 1, tol=tol))
        except SolverError as exc:
            raise SolverError(
                f"segment count {segments}: {exc}",
                best=exc.best,
                residual=exc.residual,
            ) from exc
    return rows
