"""Piecewise-linear minimax bounds for the normal first-order loss function.

The package computes the first-order loss function E[max(W - x, 0)] and
its complement E[max(x - W, 0)] for normal random variables, solves the
equal-error partitioning problem that makes the piecewise-linear Jensen
lower bound minimax-optimal, constructs the matching upper bound, and
exports distribution-independent linearisation coefficients for MILP
embedding.

Solver diagnostics go to the "losslin" stdlib logger, which has a
NullHandler: nothing is printed unless the application configures logging.
"""

import logging

# the one version literal; set before the submodule imports so export_io
# can stamp it into its output
__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

from .bounds import (
    BoundReport,
    PiecewiseLinear,
    build_lower,
    build_report,
    build_upper_chord,
    build_upper_shift,
    evaluate,
    max_gap,
)
from .errors import (
    BoundViolationError,
    DomainError,
    InvalidParameterError,
    LossLinError,
    QuadratureError,
    SolverError,
)
from .export_io import (
    ExportBundle,
    from_json,
    plot_data,
    to_csv_table,
    to_json,
    to_lp_constraints,
)
from .gaussian import cdf, inv_cdf, phi
from .loss_core import (
    STANDARD,
    GenericDistribution,
    NormalParams,
    adaptive_simpson,
    closs,
    closs_generic,
    closs_std,
    loss,
    loss_std,
)
from .partition import (
    BreakpointErrors,
    Partition,
    breakpoint_errors,
    parameter_table,
    solve_minimax,
)

__all__ = [
    "BoundReport",
    "BoundViolationError",
    "BreakpointErrors",
    "DomainError",
    "ExportBundle",
    "GenericDistribution",
    "InvalidParameterError",
    "LossLinError",
    "NormalParams",
    "Partition",
    "PiecewiseLinear",
    "QuadratureError",
    "STANDARD",
    "SolverError",
    "adaptive_simpson",
    "breakpoint_errors",
    "build_lower",
    "build_report",
    "build_upper_chord",
    "build_upper_shift",
    "cdf",
    "closs",
    "closs_generic",
    "closs_std",
    "evaluate",
    "from_json",
    "inv_cdf",
    "loss",
    "loss_std",
    "max_gap",
    "parameter_table",
    "phi",
    "plot_data",
    "solve_minimax",
    "to_csv_table",
    "to_json",
    "to_lp_constraints",
]
