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
                    = (phi(m_i) - phi(b_i)) + m_i * (Phi(m_i) - Phi(b_i))

The second form of e_i, which subtracts like terms first, is the one computed.

The solver exploits the symmetry of the optimum: only the strictly
negative interior boundaries and the common error are unknowns, the rest
are mirrored (with an exact zero in the middle when the interior count is
odd).  Each e_i depends only on its own region's two boundaries and has
closed-form partials, so the Jacobian of the residuals e_i - eps is lower
bidiagonal plus one column of -1s, and an exact Newton step costs O(N).
The partials reuse Phi(m_i) - Phi(b_i) and phi(b_i) from the pass that
computed the residuals, so a Newton iteration evaluates Phi and phi once at
the boundaries and once at the conditional means, and nothing else.

For a narrow region the breakpoint error is about phi(m) h^2 / 24, where h
is its width, so equal errors give h proportional to phi^(-1/2): the
boundaries have density proportional to exp(-x^2 / 4), the N(0, 2)
density.  Newton starts from the N(0, 2) quantiles, a few hundredths from
the solution for every N, and takes full steps only; the step after
meeting the tolerance polishes the result to rounding level.
"""

from __future__ import annotations

import logging
import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

from . import gaussian
from .errors import InvalidParameterError, SolverError

__all__ = [
    "Partition",
    "BreakpointErrors",
    "breakpoint_errors",
    "solve_minimax",
    "parameter_table",
    "check_count",
    "check_tol",
    "DEFAULT_TOL",
]

_log = logging.getLogger(__name__)

DEFAULT_TOL = 1e-10

_MAX_ITER = 200


def _region_stats(upper: np.ndarray):
    """masses, conditional means and breakpoint errors for boundaries b_1..b_N,
    followed by Phi(m_i) - Phi(b_i) and phi(b_i), which the solver's Jacobian
    reuses; None if some region has no positive mass.

    b_N must be +inf and the interior boundaries finite (Partition and
    _symmetric_stats check this first).  Phi and phi are evaluated once on
    the interior boundaries, padded with their limits at -inf and +inf, and
    once on the conditional means.  Positive masses imply strictly
    increasing boundaries, so a None also rejects crossed ones.
    """
    inner = upper[:-1]
    big_phi = np.concatenate(([0.0], gaussian.cdf(inner), [1.0]))
    small_phi = np.concatenate(([0.0], gaussian.phi(inner), [0.0]))
    big_phi_hi, small_phi_hi = big_phi[1:], small_phi[1:]
    p = big_phi_hi - big_phi[:-1]
    if not np.all(p > 0.0):
        return None
    m = (small_phi[:-1] - small_phi_hi) / p
    d_phi = gaussian.cdf(m) - big_phi_hi
    e = (gaussian.phi(m) - small_phi_hi) + m * d_phi
    return p, m, e, d_phi, small_phi_hi


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
        try:
            b = np.asarray(self.upper_limits)
        except (TypeError, ValueError):
            b = None
        # integer and float dtypes only: strings, objects, bools and complex are rejected
        if b is None or b.ndim != 1 or b.dtype.kind not in "iuf":
            raise InvalidParameterError("upper limits must be a flat sequence of numbers")
        b = b.astype(float, copy=False)
        if b.size < 1:
            raise InvalidParameterError("a partition needs at least one region")
        if not math.isinf(b[-1]) or b[-1] < 0:
            raise InvalidParameterError("the last upper limit must be +inf")
        if b.size > 1 and (not np.all(np.isfinite(b[:-1])) or np.any(np.diff(b) <= 0)):
            raise InvalidParameterError("upper limits must be finite and strictly increasing")

        stats = _region_stats(b)
        if stats is None:
            raise InvalidParameterError("boundaries produce an empty or degenerate region")
        p, m, e, _, _ = stats
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
        try:
            interior = tuple(interior)
        except TypeError:
            raise InvalidParameterError("interior boundaries must be a sequence of numbers") from None
        return cls(interior + (math.inf,))


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
    """Upper limits b_1..b_N of the symmetric point, then its _region_stats;
    None if some boundary is not finite or some region has no positive mass."""
    if not np.all(np.isfinite(neg)):
        return None
    upper = np.concatenate((_expand_symmetric(neg, n_regions), [np.inf]))
    stats = _region_stats(upper)
    return None if stats is None else (upper,) + stats


def _reduced_jacobian(stats, n_regions: int):
    """Exact Jacobian of e_1..e_h, h = ceil(N/2), in the negative boundaries.

    Each e_i depends only on its own region's boundaries.  With
    dPhi = Phi(m_i) - Phi(b_i), the chain rule through
    dm_i/db_i = phi(b_i)(b_i - m_i)/p_i, dm_i/db_{i-1} = phi(b_{i-1})(m_i - b_{i-1})/p_i
    and closs_std' = Phi gives

        de_i/db_i     = (dPhi / p_i + 1) phi(b_i) (b_i - m_i)
        de_i/db_{i-1} = dPhi phi(b_{i-1}) (m_i - b_{i-1}) / p_i

    stats is _symmetric_stats at the point, whose dPhi and phi(b_i) are
    read, so this evaluates nothing.

    Returns (diag, sub, mid) as read by _newton_step: diag[i] = de_i/db_i
    and sub[i] = de_i/db_{i-1} for the rows i < h - 1 (sub[0] = 0, as the
    first region has no finite lower boundary).  The middle region's upper
    limit mirrors the last unknown when N is odd (b_h = -b_{h-1}, so
    mid = de/da - de/db) and is the fixed zero when N is even (mid = de/da).
    """
    rows = (n_regions + 1) // 2
    b, p, m, _, d_phi, phi_b = (v[:rows] for v in stats)
    d_upper = (d_phi / p + 1.0) * phi_b * (b - m)
    a = b[:-1]
    d_lower = np.concatenate(([0.0], d_phi[1:] * phi_b[:-1] * (m[1:] - a) / p[1:]))
    mid = d_lower[-1] - d_upper[-1] if n_regions % 2 else d_lower[-1]
    return d_upper[:-1], d_lower[:-1], float(mid)


def _newton_step(diag, sub, mid: float, r: np.ndarray):
    """Solve J (db, d_eps) = -r for the symmetry-reduced equal-error system.

    Row i < n reads  sub[i] db_{i-1} + diag[i] db_i - d_eps = -r_i  (sub[0]
    multiplies nothing); the middle row n reads  mid db_{n-1} - d_eps = -r_n.
    Forward substitution writes db = u + v d_eps; u and v follow the
    recurrence x_i = rho_i x_{i-1} + q_i, rho_i = -sub[i] / diag[i], with
    q = -r / diag and 1 / diag, solved as the prefix scan x = P cumsum(q / P),
    P = cumprod(rho) (Blelloch, CMU-CS-90-190, 1990).  The middle row then
    fixes d_eps.  Over every pass for N <= 10001, rho lay in [0.514, 1) and
    P_n >= 9.7e-4 (rho >= 0.507, P_n = 3.8e-5 at N = 300000); a P_n that is
    not a positive normal float gives a NaN step, which the solver rejects.
    """
    n = diag.size
    big_p = np.ones(n)
    np.cumprod(-sub[1:] / diag[1:], out=big_p[1:])
    if not sys.float_info.min <= big_p[-1] <= sys.float_info.max:
        return np.full(n, math.nan), math.nan
    diag_p = diag * big_p
    u = big_p * np.cumsum(-r[:n] / diag_p)
    v = big_p * np.cumsum(1.0 / diag_p)
    d_eps = float((-r[n] - mid * u[-1]) / (mid * v[-1] - 1.0))
    return u + d_eps * v, d_eps


def check_tol(tol: float) -> float:
    """Return tol if it is a usable solver tolerance: positive and finite."""
    if not 0.0 < tol < math.inf:
        raise InvalidParameterError("tol must be a positive finite number")
    return tol


def check_count(value, minimum: int, message: str) -> int:
    """Return value as an int if it is an integer >= minimum, else raise message.

    Any integer type passes (operator.index), numpy integers included; bool
    does not, as True is no count.
    """
    if not isinstance(value, bool):
        try:
            count = operator.index(value)
        except TypeError:
            pass
        else:
            if count >= minimum:
                return count
    raise InvalidParameterError(message)


_SOLVE_RECORD = ("solve_minimax n_regions=%d iterations=%d passes=%d "
                 "polish_kept=%s residual=%.3g")


def solve_minimax(n_regions: int, tol: float = DEFAULT_TOL) -> Partition:
    """Solve the equal-error system for an N-region minimax partition.

    Unknowns are the strictly negative interior boundaries plus the common
    error eps; the zero middle boundary (when the interior count is odd)
    and the positive half are generated by symmetry, which enforces the
    symmetric-optimum property exactly.  The residuals e_i - eps over the
    ceil(N/2) symmetry-distinct breakpoints form a square system whose
    exact Jacobian is lower bidiagonal plus a column of -1s, so each Newton
    step costs O(N).  Each full Newton step is kept only if its point has
    finite boundaries, regions of positive mass and a smaller reduced
    residual; a rejected step before convergence raises SolverError with
    the best point.  Once the residuals e_1 - e_k over all breakpoints
    have norm <= tol, one more step polishes the result, kept on the same
    terms.  N = 1 and N = 2 are returned analytically.

    Each call logs one DEBUG record on the losslin.partition logger: N,
    Newton iterations, region-statistics passes (including the one that
    certifies the result), whether the polishing step was kept, and the
    final residual norm over all breakpoints.
    """
    n_regions = check_count(n_regions, 1,
                            f"n_regions must be a positive integer, got {n_regions!r}")
    check_tol(tol)

    if n_regions <= 2:
        part = Partition.from_boundaries(() if n_regions == 1 else (0.0,))
        _log.debug(_SOLVE_RECORD, n_regions, 0, 1, False,
                   _full_residual_norm(np.asarray(part._errors)))
        return part

    rows = (n_regions + 1) // 2
    # equal errors spread the boundaries like N(0, 2) quantiles (see the
    # module docstring), which start within a few hundredths of the solution
    neg = math.sqrt(2.0) * gaussian.inv_cdf(np.arange(1, rows) / n_regions)
    neg = np.atleast_1d(np.asarray(neg, dtype=float))

    stats = _symmetric_stats(neg, n_regions)
    eps = float(np.mean(stats[3][:rows]))
    r = stats[3][:rows] - eps
    norm2 = float(r @ r)
    iterations = 0
    passes = 1

    while True:
        residual = _full_residual_norm(stats[3])
        # Newton converges quadratically, so a step from a point that meets
        # tol lands at rounding level; that polishing step is the last
        polishing = residual <= tol
        if not polishing and iterations == _MAX_ITER:
            raise SolverError(
                f"no convergence within {_MAX_ITER} iterations for {n_regions} regions",
                best=_expand_symmetric(neg, n_regions),
                residual=residual,
            )
        delta, d_eps = _newton_step(*_reduced_jacobian(stats, n_regions), r)
        trial_neg = neg + delta
        trial = _symmetric_stats(trial_neg, n_regions)
        kept = False
        if trial is not None:
            passes += 1
            trial_r = trial[3][:rows] - (eps + d_eps)
            if float(trial_r @ trial_r) < norm2:
                neg, eps, stats, r = trial_neg, eps + d_eps, trial, trial_r
                norm2 = float(r @ r)
                kept = True
        if polishing:
            break
        if not kept:
            raise SolverError(
                f"Newton iteration stalled for {n_regions} regions"
                f" at residual {residual:.3g} > tol {tol:.3g}",
                best=_expand_symmetric(neg, n_regions),
                residual=residual,
            )
        iterations += 1

    _log.debug(_SOLVE_RECORD, n_regions, iterations, passes + 1, kept,
               _full_residual_norm(stats[3]))
    return Partition.from_boundaries(_expand_symmetric(neg, n_regions).tolist())


def _full_residual_norm(e: np.ndarray) -> float:
    """Norm of e_1 - e_k over all breakpoints k = 2..N."""
    return float(np.linalg.norm(e[0] - e[1:]))


def parameter_table(max_segments: int, tol: float = DEFAULT_TOL) -> list[Partition]:
    """Minimax partitions for every segment count 2..max_segments.

    Segment count refers to the piecewise-linear lower bound, which has
    one segment more than the partition has regions.
    """
    max_segments = check_count(max_segments, 2, "max_segments must be an integer >= 2")
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
