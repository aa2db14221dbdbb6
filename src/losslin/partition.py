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
computed the residuals, so a Newton pass evaluates nothing but two fused
Phi/phi kernel calls, one on the boundaries and one on the conditional means.
The step reads only the ceil(N/2) symmetry-distinct regions, so the start
and the Newton trials evaluate only those; the stopping test mirrors their
errors.

For a narrow region the breakpoint error is about phi(m) h^2 / 24, where h
is its width, so equal errors give h proportional to phi^(-1/2): the
boundaries have density proportional to exp(-x^2 / 4), the N(0, 2)
density.  Newton starts from the N(0, 2) quantiles at the index k + delta,
where delta(k, N), about 0.15, is a least-squares fit to the solved
partitions (_start), and takes full steps only: none or one for every N
up to 30000 but N = 3 and 5-7, which take two, within a budget of 4
(_MAX_STEPS).  The step after the residual falls to
1e-10 polishes the result to rounding level; its pass covers all N regions
and certifies the result.  A solve therefore makes iterations + 2 passes,
at N = 1000 two: the start over 500 regions and the polish over 1000.  Any
other outcome raises one SolverError.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gaussian
from .errors import InvalidParameterError, SolverError, _count, _instance, _real, _shown

__all__ = [
    "Partition",
    "BreakpointErrors",
    "breakpoint_errors",
    "solve_minimax",
    "parameter_table",
]

_log = logging.getLogger(__name__)

_TOL = 1e-10

_MAX_STEPS = 4

# the largest region count solve_minimax takes (parameter_table: one more segment)
_MAX_REGIONS = 3 * 10**4


def _region_stats(upper: np.ndarray):
    """masses, conditional means and breakpoint errors for upper limits b_1..b_k,
    followed by Phi(m_i) - Phi(b_i) and Phi and phi at b_0 = -inf, b_1..b_k, which
    the solver's Jacobian and a partition's tangent chain reuse; None if some
    region has no positive mass or finite conditional mean.

    The limits are finite except a last one of +inf, which closes the
    partition (Partition and _symmetric_stats check this first).  A finite
    last limit selects a partition's first k regions, and their stats come
    out bit for bit as in the full pass, since every operation is
    elementwise.  Two fused kernel calls evaluate Phi and phi at the finite
    limits, into one zeroed (2, k + 1) block, and at the conditional means,
    into one (2, k) block in which Phi(m_i) - Phi(b_i) and the errors are then
    formed in place.  Positive masses imply strictly increasing limits, so
    None also rejects crossed ones.
    """
    finite = upper.size - 1 if upper[-1] == math.inf else upper.size
    big_phi, small_phi = np.zeros((2, upper.size + 1))
    big_phi[-1] = 1.0  # Phi(+inf); overwritten when the last limit is finite
    # Phi and phi are 0 at the lower limit -inf
    gaussian._cdf_phi(upper[:finite], big_phi[1:finite + 1], small_phi[1:finite + 1])
    big_phi_hi, small_phi_hi = big_phi[1:], small_phi[1:]
    p = big_phi_hi - big_phi[:-1]
    if not np.logical_and.reduce(p > 0.0):
        return None
    m = small_phi[:-1] - small_phi_hi
    m /= p
    if not np.logical_and.reduce(np.isfinite(m)):
        return None
    d_phi, e = gaussian._cdf_phi(m, *np.empty((2, m.size)))
    d_phi -= big_phi_hi
    e -= small_phi_hi
    e += m * d_phi
    return p, m, e, d_phi, big_phi, small_phi


@dataclass(frozen=True)
class Partition:
    """N adjacent regions of the standard normal support, given by their boundaries.

    Its one field is its one constructor argument, upper_limits: b_1 < ... < b_N
    with b_N = +inf (a -0.0 is read as 0.0), so ==, hash and repr read nothing
    else.  Construction parses them by losslin.errors' rule and certifies one
    pass of region statistics (_certify, which solve_minimax calls with its last
    pass), from which it sets max_error, the largest breakpoint error, and keeps,
    read-only, the pass's masses and conditional means as in the module docstring
    (_masses, _cond_means), its errors (_errors) and Phi and phi at -inf,
    b_1..b_N (_big_phi, _small_phi).  Instances can therefore be trusted
    downstream.  The tuples masses and cond_means, its bound chain (_chain) and
    its scale-free export texts (_texts) it builds on first read, so a solve
    converts no per-region arrays to Python floats but upper_limits.  A copy or
    pickle is rebuilt from upper_limits alone (__reduce__), so it is certified
    afresh and holds no cache.
    """

    upper_limits: tuple[float, ...]

    def __post_init__(self):
        b = _real(self.upper_limits, InvalidParameterError,
                  "upper limits must be a flat sequence of numbers", 1) + 0.0
        if b.size < 1:
            raise InvalidParameterError("a partition needs at least one region")
        if not math.isinf(b[-1]) or b[-1] < 0:
            raise InvalidParameterError("the last upper limit must be +inf")
        if b.size > 1 and (not np.all(np.isfinite(b[:-1])) or np.any(np.diff(b) <= 0)):
            raise InvalidParameterError("upper limits must be finite and strictly increasing")
        self._certify(b, _region_stats(b))

    def _certify(self, b: np.ndarray, stats) -> "Partition":
        """Certify the _region_stats of limits b, set every attribute, arrays read-only; return self."""
        if stats is None:
            raise InvalidParameterError("boundaries produce an empty or degenerate region")
        p, m, e, _, big_phi, small_phi = stats
        if abs(np.add.reduce(p) - 1.0) > 1e-12:
            raise InvalidParameterError("region masses must sum to one")
        if np.logical_or.reduce(m[1:] <= m[:-1]):
            raise InvalidParameterError("conditional means must be strictly increasing")
        # _region_stats gave finite means, so m_1 > -inf = a_1
        if np.logical_or.reduce(m[1:] <= b[:-1]) or np.logical_or.reduce(m >= b):
            raise InvalidParameterError("each conditional mean must lie inside its region")
        if abs(float(np.dot(p, m))) > 1e-10:
            raise InvalidParameterError("the discretisation must preserve the zero mean")
        for a in (p, m, e, big_phi, small_phi):
            a.flags.writeable = False
        vars(self).update(upper_limits=tuple(b.tolist()), max_error=float(np.maximum.reduce(e)),
                          _masses=p, _cond_means=m, _errors=e, _big_phi=big_phi,
                          _small_phi=small_phi)
        return self

    def __reduce__(self):
        return (Partition, (self.upper_limits,))

    @cached_property
    def masses(self) -> tuple[float, ...]:
        return tuple(self._masses.tolist())

    @cached_property
    def cond_means(self) -> tuple[float, ...]:
        return tuple(self._cond_means.tolist())

    @cached_property
    def _chain(self) -> tuple:
        """(error spread, slopes, tangent intercepts, lifted intercepts) of the standard chain
        over cond_means: _big_phi (0, Phi(b_i)..., 1), _small_phi (0, phi(b_i)..., 0), those
        plus max_error.  It needs no check: positive masses make Phi(b_i) rise strictly from
        0 to 1, the means are certified finite and increasing, the tangents at b_(i-1) and b_i
        meet at m_i by the definition of m_i, and the upper chain is the lower one lifted."""
        intercepts = tuple(self._small_phi.tolist())
        return (float(self._errors.max() - self._errors.min()), tuple(self._big_phi.tolist()),
                intercepts, tuple(c + self.max_error for c in intercepts))

    @cached_property
    def _texts(self) -> dict:
        """By (renderer, target), the export texts no scale changes (export_io._scale_free)."""
        return {}

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
    """Per-breakpoint approximation errors of a partition's lower bound (at least one, finite)."""

    values: tuple[float, ...]

    def __post_init__(self):
        values = _real(self.values, InvalidParameterError,
                       "values must be a flat sequence of int or float numbers", 1)
        if values.size == 0:
            raise InvalidParameterError("need at least one breakpoint error")
        if not np.all(np.isfinite(values)):
            raise InvalidParameterError("breakpoint errors must be finite")
        object.__setattr__(self, "values", tuple(values.tolist()))

    @property
    def spread(self) -> float:
        return max(self.values) - min(self.values)


def breakpoint_errors(partition: Partition) -> BreakpointErrors:
    """Errors at all N breakpoints (the conditional means), as certified on construction."""
    return BreakpointErrors(values=_instance(partition, Partition, "partition")._errors)


# ---------------------------------------------------------------------------
# Equal-error solve
# ---------------------------------------------------------------------------

def _symmetric_limits(neg: np.ndarray, n_regions: int, half: bool = False) -> np.ndarray:
    """Upper limits b_1..b_N (b_N = +inf) of the symmetric point with negative
    interior boundaries neg, or b_1..b_h, h = ceil(N/2), when half; an odd
    interior count (N even) has a zero middle boundary."""
    if half:  # the middle region's upper limit is zero or the mirror of the last unknown
        return np.append(neg, -neg[-1] if n_regions % 2 else 0.0)
    middle = [0.0] if n_regions % 2 == 0 else []
    return np.concatenate((neg, middle, -neg[::-1], [np.inf]))


def _symmetric_stats(neg: np.ndarray, n_regions: int, half: bool = False):
    """_symmetric_limits, then their _region_stats; None if some boundary is
    not finite or some region has no positive mass."""
    if not np.logical_and.reduce(np.isfinite(neg)):
        return None
    upper = _symmetric_limits(neg, n_regions, half)
    stats = _region_stats(upper)
    return None if stats is None else (upper,) + stats


def _mirrored(e: np.ndarray, n_regions: int) -> np.ndarray:
    """e_1..e_N from e_1..e_h, h = ceil(N/2), as symmetry gives them."""
    return np.concatenate((e, e[-1 - n_regions % 2::-1]))


def _reduced_jacobian(stats, n_regions: int):
    """Exact Jacobian of e_1..e_h, h = ceil(N/2), in the negative boundaries.

    Each e_i depends only on its own region's boundaries.  With
    dPhi = Phi(m_i) - Phi(b_i), the chain rule through
    dm_i/db_i = phi(b_i)(b_i - m_i)/p_i, dm_i/db_{i-1} = phi(b_{i-1})(m_i - b_{i-1})/p_i
    and closs_std' = Phi gives

        de_i/db_i     = (dPhi / p_i + 1) phi(b_i) (b_i - m_i)
        de_i/db_{i-1} = dPhi phi(b_{i-1}) (m_i - b_{i-1}) / p_i

    stats is _symmetric_stats at the point, half or full, whose dPhi and
    phi(b_i) are read, so this evaluates nothing.

    Returns (diag, sub, mid) as read by _newton_step: diag[i] = de_i/db_i
    and sub[i] = de_i/db_{i-1} for the rows i < h - 1 (sub[0] = 0, as the
    first region has no finite lower boundary).  The middle region's upper
    limit mirrors the last unknown when N is odd (b_h = -b_{h-1}, so
    mid = de/da - de/db) and is the fixed zero when N is even (mid = de/da).
    """
    h = (n_regions + 1) // 2
    b, p, m, _, d_phi, _, small_phi = stats  # small_phi[i] = phi(b_i), b_0 = -inf
    d_upper = (d_phi[:h] / p[:h] + 1.0) * small_phi[1:h + 1] * (b[:h] - m[:h])
    d_lower = np.zeros(h)
    d_lower[1:] = d_phi[1:h] * small_phi[1:h] * (m[1:h] - b[:h - 1]) / p[1:h]
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
    fixes d_eps.  Over every pass for N <= 10001, rho lay in [0.549, 1) and
    P_n >= 1.1e-3 (rho >= 0.546, P_n >= 3.9e-4 at N = 30000); a P_n that is
    not a positive normal float gives a NaN step, which the solver rejects.
    """
    n = diag.size
    big_p = np.empty(n)
    big_p[0] = 1.0
    np.multiply.accumulate(-sub[1:] / diag[1:], out=big_p[1:])
    if not sys.float_info.min <= big_p[-1] <= sys.float_info.max:
        return np.full(n, math.nan), math.nan
    diag_p = diag * big_p
    u = big_p * np.add.accumulate(-r[:n] / diag_p)
    v = big_p * np.add.accumulate(1.0 / diag_p)
    d_eps = float((-r[n] - mid * u[-1]) / (mid * v[-1] - 1.0))
    return u + d_eps * v, d_eps


# least-squares coefficients of the start's index shift delta(k, N) in the terms
# 1, u, u^2, u^3, sqrt(u), u sqrt(u), w, w^2, w^3, w g, w^2 g, g, g u, g sqrt(u),
# g^2, g^2 u, w u, w sqrt(u) of u = k/(N + 0.3), w = 1/(k + 0.5), g = 1/ln N,
# as scripts/fit_start.py fits them to the solved partitions of N = 3..10001
_START_FIT = (
    0.18853871434143957,  # 1
    -0.0772351608866678,  # u
    0.002041003390328859,  # u^2
    -0.0005591353449843689,  # u^3
    0.0005683666964381091,  # sqrt(u)
    -0.0025828055296652345,  # u sqrt(u)
    -0.027755730697314563,  # w
    -0.009794373728504072,  # w^2
    -0.0013040258516472522,  # w^3
    0.026155292660170946,  # w g
    -0.0010888549406517247,  # w^2 g
    -0.08415179485985184,  # g
    0.18453756514103878,  # g u
    -0.008169028580521476,  # g sqrt(u)
    0.031509356704208326,  # g^2
    -0.08115590732128478,  # g^2 u
    0.038140831476245994,  # w u
    0.0034590971163722907,  # w sqrt(u)
)


def _start(n_regions: int) -> np.ndarray:
    """Newton's start: the negative interior boundaries sqrt(2) inv_cdf((k + delta)/(N + 0.3)),
    k = 1..ceil(N/2) - 1, N >= 3.  The solved ones sit at N(0, 2) quantiles
    whose index is shifted by 0.14-0.18, smoothly in k and N.  The model
    delta(k, N) of _START_FIT follows those shifts to within 2e-4 for
    N = 3..10001, so the start is at most one Newton step from the tolerance
    for every N >= 10.  It is evaluated in a fixed order from elementwise
    + - * / and sqrt and one scalar log, with the powers of g folded into
    scalar coefficients, so its bits do not depend on numpy's SIMD dispatch."""
    c = _START_FIT
    k = np.arange(1.0, (n_regions + 1) // 2)
    u = k / (n_regions + 0.3)
    w = 1.0 / (k + 0.5)
    r = np.sqrt(u)
    g = 1.0 / math.log(n_regions)
    delta = ((c[0] + g * (c[11] + g * c[14])) + u * ((c[1] + g * (c[12] + g * c[15]))
                                                   + u * (c[2] + u * c[3]))
             + r * ((c[4] + g * c[13]) + u * c[5])
             + w * (((c[6] + g * c[9]) + w * ((c[7] + g * c[10]) + w * c[8]))
                    + u * c[16] + r * c[17]))
    return math.sqrt(2.0) * gaussian.inv_cdf((k + delta) / (n_regions + 0.3))


_SOLVE_RECORD = "solve_minimax n_regions=%d iterations=%d passes=%d residual=%.3g"


def solve_minimax(n_regions: int) -> Partition:
    """Solve the equal-error system for an N-region minimax partition, by the
    Newton iteration of the module docstring; N = 1 and N = 2 are returned
    analytically, and N is at most 30000 (_MAX_REGIONS): past 10**5 a solve is not minimax.

    Each full step is kept.  Once the mirrored residuals e_1 - e_k have norm
    <= 1e-10 (_TOL), which the start meets or comes within 2 steps of, within
    a budget of 4 (_MAX_STEPS), one more step
    polishes the result, and its full pass certifies it as Partition
    construction would.  A step whose point has a boundary that is not finite
    or a region without positive mass, the polishing step included, or a
    residual still above _TOL after 4 steps raises SolverError with the last
    usable point and its residual over all breakpoints.  Each call logs one
    DEBUG record on the losslin.partition logger: N, Newton steps, region
    statistics passes (steps + 2; 2 at N = 1000) and the final residual norm
    over all breakpoints.
    """
    n_regions = _count(n_regions, 1, "n_regions must be a positive integer, got "
                       + _shown(n_regions, object), _MAX_REGIONS)

    if n_regions <= 2:
        part = Partition.from_boundaries(() if n_regions == 1 else (0.0,))
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug(_SOLVE_RECORD, n_regions, 0, 1, _full_residual_norm(part._errors))
        return part

    neg = _start(n_regions)
    stats = _symmetric_stats(neg, n_regions, half=True)
    eps = float(np.add.reduce(stats[3]) / stats[3].size)
    r = stats[3] - eps
    for iterations in range(_MAX_STEPS + 1):
        # Newton converges quadratically, so a step from a point that meets
        # _TOL lands at rounding level; that polishing step is the last, and
        # its pass covers all regions, as it certifies the result
        polishing = _full_residual_norm(_mirrored(stats[3], n_regions)) <= _TOL
        if not polishing and iterations == _MAX_STEPS:
            break
        delta, d_eps = _newton_step(*_reduced_jacobian(stats, n_regions), r)
        trial_neg = neg + delta
        trial = _symmetric_stats(trial_neg, n_regions, half=not polishing)
        if trial is None:
            break
        if polishing:
            if _log.isEnabledFor(logging.DEBUG):
                _log.debug(_SOLVE_RECORD, n_regions, iterations, iterations + 2,
                           _full_residual_norm(trial[3]))
            return Partition.__new__(Partition)._certify(trial[0], trial[1:])
        neg, eps, stats = trial_neg, eps + d_eps, trial
        r = stats[3] - eps

    last = _symmetric_stats(neg, n_regions)
    residual = _full_residual_norm(last[3])
    raise SolverError(f"no certified partition of {n_regions} regions after {iterations}"
                      f" Newton steps: residual {residual:.3g}, tol {_TOL:.3g}",
                      best=last[0][:-1], residual=residual)


def _full_residual_norm(e: np.ndarray) -> float:
    """Norm of e_1 - e_k over all breakpoints k = 2..N (what np.linalg.norm computes)."""
    d = e[0] - e[1:]
    return math.sqrt(d @ d)


def parameter_table(max_segments: int) -> list[Partition]:
    """Minimax partitions for every segment count 2..max_segments.

    Segment count refers to the piecewise-linear lower bound, which has
    one segment more than the partition has regions, so max_segments is
    at most 30001, as solve_minimax takes at most 30000 regions.
    """
    max_segments = _count(max_segments, 2, "max_segments must be an integer >= 2",
                          _MAX_REGIONS + 1)
    rows = []
    for segments in range(2, max_segments + 1):
        try:
            rows.append(solve_minimax(segments - 1))
        except SolverError as exc:
            raise SolverError(
                f"segment count {segments}: {exc}",
                best=exc.best,
                residual=exc.residual,
            ) from exc
    return rows
