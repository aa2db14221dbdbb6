"""Exception hierarchy shared by all losslin modules, and the input rules.

Every public entry point checks its arguments through the private rules at
the end of this module, and each rule takes the message of the error it raises.
"""

import operator
import warnings
from collections.abc import Iterator

import numpy as np

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

    The estimate of the whole integral at that point and the error
    indication achieved on the unresolved interval are attached, so callers
    can decide whether the partial result is still usable.
    """

    def __init__(self, message: str, estimate: float, achieved: float):
        super().__init__(message)
        self.estimate = estimate
        self.achieved = achieved


class SolverError(LossLinError, RuntimeError):
    """A nonlinear solve did not converge.

    Carries the last usable point and its residual norm.
    """

    def __init__(self, message: str, best=None, residual: float = float("nan")):
        super().__init__(message)
        self.best = best
        self.residual = residual


class BoundViolationError(LossLinError, RuntimeError):
    """A piecewise-linear bound crossed the exact function beyond tolerance."""


_ARGUMENTS = "arguments must be int or float, got dtype {dtype}"

# numpy < 1.24 warns on a ragged sequence and returns an object array; later ones raise
_RAGGED_WARNING = (np.VisibleDeprecationWarning
                   if np.lib.NumpyVersion(np.__version__) < "1.24.0" else None)


def _real(x, error, message: str, ndim: int | None = None):
    """x as a float array, or a float if ndim == 0; error(message) unless x is int
    or float with ndim dimensions (any if None), checked before the cast, which
    would parse strings, read bools, also among numbers, and drop imaginary parts.
    An int past 64 bits is read as the nearest float, and one that no float
    holds is rejected as such.  An iterator is read into a tuple when ndim == 1.
    message may name {dtype} and {type}."""
    if ndim == 1 and isinstance(x, Iterator):
        x = tuple(x)
    try:
        if _RAGGED_WARNING is None:
            arr = np.asarray(x)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", _RAGGED_WARNING)
                arr = np.asarray(x)
    except (TypeError, ValueError):  # a ragged sequence
        arr = np.array(None)
    # report a bool in a list or tuple of numbers, which np.asarray reads as 0 or 1, as dtype bool
    if arr.dtype.kind in "iuf" and isinstance(x, (list, tuple)) and not {bool, np.bool_}.isdisjoint(
            map(type, x if arr.ndim == 1 else np.array(x, dtype=object).flat)):
        arr = np.array(False)
    # np.asarray reads an int past int64 and uint64 as an object, alone or among numbers
    elif arr.dtype.kind == "O" and not isinstance(x, np.ndarray):
        flat = arr.ravel().tolist()
        if any(isinstance(v, (bool, np.bool_)) for v in flat):
            arr = np.array(False)
        elif all(isinstance(v, (int, float, np.integer, np.floating)) for v in flat):
            try:
                arr = np.array([float(v) for v in flat]).reshape(arr.shape)
            except OverflowError:
                raise error("an int argument is beyond the float range") from None
    if arr.dtype.kind not in "iuf" or (ndim is not None and arr.ndim != ndim):
        raise error(message.format(dtype=arr.dtype, type=type(x).__name__))
    return float(arr) if ndim == 0 else arr.astype(float, copy=False)


def _count(value, minimum: int, message: str, maximum: int | None = None) -> int:
    """value as an int if it is an integer (operator.index, not a bool) in
    minimum..maximum, else InvalidParameterError(message), naming a limit exceeded."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            count = operator.index(value)
        except TypeError:
            pass
        else:
            if maximum is not None and count > maximum:
                raise InvalidParameterError(f"{message} (the limit is {maximum})")
            if count >= minimum:
                return count
    raise InvalidParameterError(message)


def _instance(obj, cls: type, name: str):
    if not isinstance(obj, cls):
        raise InvalidParameterError(f"{name} must be a {cls.__name__} instance")
    return obj


def _shown(value, kinds=str) -> str:
    """repr(value) for a message if value is of kinds, else <the name of its type>,
    as for an int that Python 3.11+ will not convert (more than 4300 digits)."""
    try:
        return repr(value) if isinstance(value, kinds) else f"<{type(value).__name__}>"
    except ValueError:
        return f"<{type(value).__name__}>"


def _choice(value, options: tuple[str, ...], name: str) -> None:
    if not (isinstance(value, str) and value in options):
        raise InvalidParameterError(f"unknown {name} {_shown(value)}")
