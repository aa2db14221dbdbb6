"""Hostile arguments at every public callable: only LossLinError escapes, and nothing warns.

Each callable in test_public_api.PUBLIC has a valid call below, with every
argument written out.  Hypothesis replaces one argument at a time with a
hostile value.  A value of a type that no parameter takes must be rejected.
Callbacks stay valid, and no hostile int is a valid count under a count's
limit, so no draw starts a long solve.
"""

import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import losslin
from losslin import (
    BoundReport,
    BreakpointErrors,
    DomainError,
    GenericDistribution,
    InvalidParameterError,
    LossLinError,
    NormalParams,
    Partition,
    PiecewiseLinear,
    STANDARD,
    build_upper_chord,
    cdf,
    closs,
    evaluate,
    from_json,
    max_gap,
    parameter_table,
    phi,
    plot_data,
    solve_minimax,
    to_json,
    to_lp_constraints,
)
from losslin import errors as errors_mod
from test_public_api import PUBLIC

_SCALE = NormalParams(1.0, 2.0)
_PART = solve_minimax(3)
_REPORT = BoundReport(_PART, _SCALE)
_TEXT = to_json(_REPORT)


def _normal_cdf(t):
    return 0.5 * math.erfc(-t / math.sqrt(2.0))


def _square(t):
    return t * t


# one valid call per public callable, every argument positional
VALID = {
    "BoundReport": (_PART, _SCALE, "closs"),
    "BreakpointErrors": ((0.1, 0.1),),
    "ExportBundle": ({}, {}, {}, {}),
    "GenericDistribution": (_normal_cdf, 0.0, -math.inf, math.inf),
    "NormalParams": (1.0, 2.0),
    "Partition": ((-0.5, 0.5, math.inf),),
    "PiecewiseLinear": ((0.0,), (0.0, 1.0), (0.4, 0.4), "lower", "closs", _SCALE),
    "adaptive_simpson": (_square, 0.0, 1.0, 1e-6),
    "breakpoint_errors": (_PART,),
    "build_lower": (_PART, _SCALE, "loss"),
    "build_report": (_PART, _SCALE, "loss"),
    "build_upper_chord": ((-1.0, 1.0), _SCALE, "closs"),
    "cdf": (0.5,),
    "closs": (0.5, _SCALE),
    "closs_generic": (0.5, GenericDistribution(_normal_cdf, 0.0), 1e-6),
    "closs_std": (0.5,),
    "evaluate": (_REPORT.lower, 0.5),
    "from_json": (_TEXT,),
    "inv_cdf": (0.5,),
    "loss": (0.5, _SCALE),
    "loss_std": (0.5,),
    "max_gap": (_REPORT.lower, None),
    "parameter_table": (3,),
    "phi": (0.5,),
    "plot_data": (_REPORT, 11),
    "solve_minimax": (3,),
    "to_csv_table": ([_PART],),
    "to_json": (_REPORT,),
    "to_lp_constraints": (_REPORT, "x", "L"),
}

RAGGED = [[1.0], [1.0, 2.0]]
HOSTILE = [
    "", "1", True, np.True_, 1 + 0j, None,
    math.nan, math.inf, -math.inf, 1e308,
    2**64, -(2**64), 10**400, 10**5000,
    [[1.0]], RAGGED, np.array(1.0), np.ones((2, 2)),
    Decimal("1"), Fraction(1, 3),
]


def _never_valid(value) -> bool:
    """A type no parameter takes (the hostile strings are no LP name, choice or bundle)."""
    return isinstance(value, (str, bool, np.bool_, complex, Decimal)) or value is RAGGED


def test_every_public_callable_has_a_valid_call():
    callables = {name for name in PUBLIC if callable(getattr(losslin, name))
                 and not (isinstance(getattr(losslin, name), type)
                          and issubclass(getattr(losslin, name), LossLinError))}
    assert set(VALID) == callables


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_call_succeeds(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        getattr(losslin, name)(*VALID[name])


@settings(max_examples=2000, deadline=None)
@given(name=st.sampled_from(sorted(VALID)), position=st.integers(0, 5),
       value=st.sampled_from(HOSTILE))
# each of these raised AttributeError, TypeError or ValueError, or was accepted
@example(name="build_lower", position=0, value="x")
@example(name="breakpoint_errors", position=0, value="x")
@example(name="max_gap", position=0, value="x")
@example(name="evaluate", position=0, value="x")
@example(name="to_json", position=0, value="x")
@example(name="to_lp_constraints", position=0, value="x")
@example(name="plot_data", position=0, value="x")
@example(name="to_csv_table", position=0, value=[1])
@example(name="to_csv_table", position=0, value=_PART)
@example(name="to_json", position=0, value=from_json(_TEXT))
@example(name="GenericDistribution", position=1, value="0")
@example(name="closs_generic", position=2, value="1")
@example(name="adaptive_simpson", position=1, value="0")
@example(name="adaptive_simpson", position=3, value=None)
@example(name="adaptive_simpson", position=0, value=1.0)
@example(name="BoundReport", position=2, value=np.array([1, 2]))
@example(name="build_lower", position=2, value=np.array([1, 2]))
@example(name="PiecewiseLinear", position=3, value=np.array([1, 2]))
@example(name="solve_minimax", position=0, value=10**400)
@example(name="solve_minimax", position=0, value=10**5000)
@example(name="BoundReport", position=2, value=10**5000)
@example(name="PiecewiseLinear", position=3, value=10**5000)
@example(name="to_lp_constraints", position=1, value=10**5000)
@example(name="BreakpointErrors", position=0, value="x")
@example(name="ExportBundle", position=0, value=1)
@example(name="parameter_table", position=0, value=2**64)
@example(name="plot_data", position=1, value=2**64)
@example(name="cdf", position=0, value=RAGGED)
@example(name="Partition", position=0, value=RAGGED)
@example(name="GenericDistribution", position=1, value=True)
@example(name="max_gap", position=1, value="junk")
def test_hostile_argument_raises_only_losslin_errors(name, position, value):
    args = list(VALID[name])
    position %= len(args)
    args[position] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            getattr(losslin, name)(*args)
        except LossLinError:
            return
    assert not _never_valid(value), \
        f"{name} accepted {value!r} as argument {position}"


class _RaggedWarning(UserWarning):
    pass


class _Numpy122:
    """numpy before 1.24: RAGGED warns and becomes an object array."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def asarray(x):
        if x is RAGGED:
            warnings.warn("Creating an ndarray from ragged nested sequences", _RaggedWarning)
            return np.array(x, dtype=object)
        return np.asarray(x)


def test_ragged_input_is_rejected_without_a_warning_on_old_numpy(monkeypatch):
    monkeypatch.setattr(errors_mod, "np", _Numpy122())
    monkeypatch.setattr(errors_mod, "_RAGGED_WARNING", _RaggedWarning)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="got dtype object$"):
            cdf(RAGGED)
        with pytest.raises(DomainError, match="int or float scalar x, got list$"):
            evaluate(_REPORT.lower, RAGGED)
        with pytest.raises(InvalidParameterError, match="^upper limits must be a flat"):
            Partition(RAGGED)
        assert cdf([0.0, 1.0]).tolist() == [0.5, cdf(1.0)]


@pytest.mark.parametrize("call, error, message", [
    (lambda: Partition((True, math.inf)), InvalidParameterError, "upper limits must be a flat"),
    (lambda: Partition.from_boundaries([-1, True]), InvalidParameterError,
     "upper limits must be a flat"),
    (lambda: closs([True, 0.5], STANDARD), DomainError, "got dtype bool$"),
    (lambda: phi([True, 2]), DomainError, "got dtype bool$"),
    (lambda: cdf([np.True_, 0.5]), DomainError, "got dtype bool$"),
    (lambda: cdf([[0.5, 1.0], (2, np.False_)]), DomainError, "got dtype bool$"),
    # numpy reads a list with an int past 64 bits as dtype object
    (lambda: cdf([2**64, True]), DomainError, "got dtype bool$"),
    (lambda: closs([np.False_, -(2**63) - 1], STANDARD), DomainError, "got dtype bool$"),
    (lambda: cdf([[2**64, 0.5], [1.0, True]]), DomainError, "got dtype bool$"),
    (lambda: build_upper_chord([False, 1.0]), InvalidParameterError,
     "breakpoints must be a sequence of numbers"),
    (lambda: BreakpointErrors((True, 0.5)), InvalidParameterError, "values must be a flat"),
    (lambda: PiecewiseLinear((0.0,), (False, 1.0), (0.4, 0.4), "lower", "closs", STANDARD),
     InvalidParameterError, "breakpoints, slopes and intercepts must be flat"),
], ids=["Partition", "from_boundaries", "closs", "phi", "cdf", "cdf-nested",
        "cdf-huge-int", "closs-huge-int", "cdf-nested-huge-int", "build_upper_chord",
        "BreakpointErrors", "PiecewiseLinear"])
def test_a_bool_among_numbers_is_rejected(call, error, message):
    # np.asarray reads a bool among numbers as 0 or 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            call()


_BIG_INT_READERS = {
    "scalar": (cdf, lambda v: cdf(float(v)), DomainError),
    "list": (lambda v: closs([v, 0.0], STANDARD).tolist(),
             lambda v: closs([float(v), 0.0], STANDARD).tolist(), DomainError),
    "NormalParams": (lambda v: NormalParams(v, 1.0), lambda v: NormalParams(float(v), 1.0),
                     InvalidParameterError),
    "evaluate": (lambda v: evaluate(_REPORT.lower, v),
                 lambda v: evaluate(_REPORT.lower, float(v)), DomainError),
}


@pytest.mark.parametrize("reader", _BIG_INT_READERS)
@pytest.mark.parametrize("value", [2**63, -(2**63), 2**64, -(2**63) - 1, 2**1023],
                         ids=["2**63", "-2**63", "2**64", "-2**63-1", "2**1023"])
def test_an_int_past_int64_is_read_as_a_float(reader, value):
    # numpy reads an int past int64 and uint64 as dtype object
    call, as_float, _ = _BIG_INT_READERS[reader]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert call(value) == as_float(value)


@pytest.mark.parametrize("reader", _BIG_INT_READERS)
def test_an_int_beyond_the_float_range_is_rejected(reader):
    call, _, error = _BIG_INT_READERS[reader]
    for value in (10**400, -(10**400), 2**1024):
        with pytest.raises(error, match="^an int argument is beyond the float range$"):
            call(value)


@pytest.mark.parametrize("call, message", [
    (lambda n: solve_minimax(n), "^n_regions must be a positive integer, got 1000001"
                                 r" \(the limit is 30000\)$"),
    (lambda n: parameter_table(n + 1), r"^max_segments must be an integer >= 2"
                                       r" \(the limit is 30001\)$"),
    (lambda n: plot_data(_REPORT, n), r"^n_points must be an integer >= 2"
                                      r" \(the limit is 1000000\)$"),
], ids=["solve_minimax", "parameter_table", "plot_data"])
def test_counts_are_capped_at_a_million(call, message):
    with pytest.raises(InvalidParameterError, match=message):
        call(10**6 + 1)


@pytest.mark.parametrize("call, message", [
    (lambda v: BoundReport(_PART, _SCALE, v), "unknown target"),
    (lambda v: PiecewiseLinear((0.0,), (0.0, 1.0), (0.4, 0.4), v, "closs", _SCALE),
     "unknown kind"),
    (lambda v: to_lp_constraints(_REPORT, v), "var_x is not a valid LP variable name:"),
], ids=["target", "kind", "lp-name"])
def test_a_non_str_choice_or_name_is_shown_by_its_type(call, message):
    # Python 3.11+ refuses to convert an int of more than 4300 digits to a string
    with pytest.raises(InvalidParameterError, match=f"^{message} <int>$"):
        call(10**5000)


@pytest.mark.parametrize("call", [
    lambda: PiecewiseLinear((0.0,), (0.0, 1.0), (math.inf, math.inf), "upper", "closs", STANDARD),
    lambda: PiecewiseLinear((0.0,), (0.0, math.inf), (0.0, 0.0), "upper", "closs", STANDARD),
    lambda: PiecewiseLinear((-1e308, 1e308), (0.0, 0.5, 1.0), (0.0, 5e307, -4.5e308),
                            "upper", "closs", STANDARD),
    # finite rows whose continuity jump overflows, or is NaN
    lambda: PiecewiseLinear((-1e308, 1e308), (0.0, 0.5, 1.0), (0.0, 5e307, -1.5e308),
                            "upper", "closs", STANDARD),
    lambda: PiecewiseLinear((1e10, 2e10), (0.0, 1e300, 1.0), (1e308, -1e308, 0.0),
                            "upper", "closs", STANDARD),
    lambda: build_upper_chord([1e10], NormalParams(0.0, 1e-300)),
    lambda: build_upper_chord([5.0, 5.0 + 2**-50], NormalParams(-1e10, 1.0)),
    lambda: build_upper_chord([-1e308, 1e308]),
], ids=["inf-intercepts", "inf-slope", "wide-breakpoints-inf-intercept", "overflowing-jump",
        "nan-jump", "overflowing-t", "colliding-t", "overflowing-t-difference"])
def test_rows_that_overflow_are_rejected_without_a_warning(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError):
            call()


def test_breakpoints_further_apart_than_a_double_are_ordered_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pl = PiecewiseLinear((-1e308, 1e308), (0.0, 0.5, 1.0), (0.0, 5e307, 0.0),
                             "upper", "closs", STANDARD)
    assert pl.breakpoints == (-1e308, 1e308)


@pytest.mark.parametrize("n_grid", ["junk", 1, 2.0, True])
def test_max_gap_takes_none_or_a_grid_size(n_grid):
    with pytest.raises(InvalidParameterError, match="^n_grid must be None or an integer >= 2$"):
        max_gap(_REPORT.lower, n_grid)
    assert max_gap(_REPORT.lower, 2) == max_gap(_REPORT.lower, np.int64(10**9))
