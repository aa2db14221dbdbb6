"""Piecewise-linear minimax bounds for the normal first-order loss function.

The package computes the first-order loss function E[max(W - x, 0)] and
its complement E[max(x - W, 0)] for normal random variables, solves the
equal-error partitioning problem that makes the piecewise-linear Jensen
lower bound minimax-optimal, constructs the matching upper bound, and
exports distribution-independent linearisation coefficients for MILP
embedding.

Each module's __all__ is its public surface; the package re-exports those names.

Solver diagnostics go to the "losslin" stdlib logger, which has a
NullHandler: nothing is printed unless the application configures logging.
"""

import logging

# the one version literal; set before the submodule imports so export_io
# can stamp it into its output
__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

from . import bounds, errors, export_io, gaussian, loss_core, partition
from .bounds import *
from .errors import *
from .export_io import *
from .gaussian import *
from .loss_core import *
from .partition import *

__all__ = []
__all__ += bounds.__all__
__all__ += errors.__all__
__all__ += export_io.__all__
__all__ += gaussian.__all__
__all__ += loss_core.__all__
__all__ += partition.__all__
