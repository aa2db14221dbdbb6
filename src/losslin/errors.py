"""Exception hierarchy shared by all losslin modules."""

__all__ = ["LossLinError", "DomainError", "InvalidParameterError", "QuadratureError",
           "SolverError", "BoundViolationError"]


class LossLinError(Exception):
    """Base class for every error raised by this package."""


class DomainError(LossLinError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class InvalidParameterError(LossLinError, ValueError):
    """A parameter object or configuration violates its constraints."""


class QuadratureError(LossLinError, RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget.

    The best available estimate and the error indication achieved at that
    point are attached, so callers can decide whether the partial result
    is still usable.
    """

    def __init__(self, message: str, estimate: float, achieved: float):
        super().__init__(message)
        self.estimate = estimate
        self.achieved = achieved


class SolverError(LossLinError, RuntimeError):
    """A nonlinear solve did not converge.

    Carries the best iterate seen and its residual norm.
    """

    def __init__(self, message: str, best=None, residual: float = float("nan")):
        super().__init__(message)
        self.best = best
        self.residual = residual


class BoundViolationError(LossLinError, RuntimeError):
    """A piecewise-linear bound crossed the exact function beyond tolerance."""
