"""Serialization of partitions and bounds for MILP embedding and plotting.

All decimal output uses 17 significant digits, which round-trips IEEE
doubles exactly, and key order is fixed, so identical inputs always
produce byte-identical text.  Unbounded segment edges are encoded as
``null`` rather than infinity sentinels.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from decimal import Decimal
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import __version__
from .bounds import BoundReport, PiecewiseLinear
from .errors import InvalidParameterError, _count, _instance, _shown
from .loss_core import closs, loss
from .partition import Partition

__all__ = [
    "ExportBundle",
    "to_json",
    "from_json",
    "to_csv_table",
    "to_lp_constraints",
    "plot_data",
]

TOOL_NAME = "losslin"

# the one real format of the JSON, CSV and plot exports
_REAL = "%.17g"
_fmt = _REAL.__mod__


def _render(obj) -> str:
    """Deterministic JSON rendering with 17-significant-digit reals.

    Floats are tested first as they are most of a bundle; keys and strings
    are escaped by the C encoder behind json.dumps.  A non-finite float has
    no JSON spelling and is rejected.
    """
    if isinstance(obj, float):
        if math.isfinite(obj):
            return _fmt(obj)
        raise InvalidParameterError(f"{obj} is not a JSON number")
    if isinstance(obj, dict):
        try:
            items = [f"{_quote(k)}: {_render(v)}" for k, v in obj.items()]
        except TypeError as exc:
            raise InvalidParameterError("JSON object keys must be strings") from exc
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join([_render(v) for v in obj]) + "]"
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    raise InvalidParameterError(f"cannot serialize {type(obj).__name__}")


_SECTIONS = ("metadata", "lower", "upper", "partition")


@dataclass(frozen=True)
class ExportBundle:
    """The four dict sections of a JSON coefficient document, as from_json returns them."""

    metadata: dict
    lower: dict
    upper: dict
    partition: dict

    def __post_init__(self):
        for name in _SECTIONS:
            if not isinstance(getattr(self, name), dict):
                raise InvalidParameterError(f"bundle section {name!r} must be a JSON object")

    def to_text(self) -> str:
        try:
            return _render({name: getattr(self, name) for name in _SECTIONS}) + "\n"
        except RecursionError:
            raise InvalidParameterError("bundle is nested too deeply to render") from None


# The bundle schema; every %s is a value already spelled as JSON.
_METADATA = ('{"tool": %s, "version": %s, "segment_count": %d, "target": %s,'
             ' "kind": "lower_upper_pair", "mu": %s, "sigma": %s, "max_error": %s}')
_BLOCK = '{"kind": "%s", "segments": [%s], "breakpoints": [%s], "error_locations": [%s]}'
# the intercept is left as a _REAL format, which each block fills
_ROW = '{"slope": %s, "intercept": %%.17g, "domain_low": %s, "domain_high": %s}'
_PARTITION = '{"upper_limits": [%s], "masses": [%s], "cond_means": [%s], "max_error_std": %s}'
_DOCUMENT = '{"metadata": %s, "lower": %s, "upper": %s, "partition": %s}\n'
_NULL = ("null",)


def _reals(values, head=(), tail=()) -> str:
    """A JSON list body: head, values and tail, the values formatted by one %."""
    return ", ".join([*head, *[_REAL] * len(values), *tail]) % tuple(values)


def to_json(report: BoundReport) -> str:
    """Serialize a bound report to the JSON coefficient bundle.

    The upper bound is the lower chain lifted, so both blocks share the
    lower bound's breakpoints and slopes: they are formatted once into the
    segment rows, and each block fills in its own intercepts.  Segment i
    spans breakpoints i-1 to i, null past either end.
    """
    _instance(report, BoundReport, "report")
    part, lower, scale = report.partition, report.lower, report.scale
    bp = list(map(_fmt, lower.breakpoints))
    slopes = map(_fmt, lower.slopes)
    rows = ", ".join(map(_ROW.__mod__, zip(slopes, ["null", *bp], [*bp, "null"])))
    breakpoints = ", ".join(bp)
    return _DOCUMENT % (
        _METADATA % (_quote(TOOL_NAME), _quote(__version__), lower.n_segments,
                     _quote(report.target), _fmt(scale.mu),
                     _fmt(scale.sigma), _fmt(report.max_error)),
        _BLOCK % ("lower", rows % lower.intercepts, breakpoints, breakpoints),
        _BLOCK % ("upper", rows % report.upper.intercepts, breakpoints,
                  _reals(report.upper_error_locations[1:-1], _NULL, _NULL)),
        _PARTITION % (_reals(part.upper_limits[:-1], tail=_NULL), _reals(part.masses),
                      _reals(part.cond_means), _fmt(part.max_error)))


def _reject_constant(name: str):
    raise InvalidParameterError(f"{name} is not a JSON number")


def _parse_int(text: str):
    # to_json writes a float negative zero as -0, and an int has no sign of zero
    return -0.0 if text == "-0" else int(text)


# built once: json.loads with a keyword argument builds a decoder per call
_DECODER = json.JSONDecoder(parse_constant=_reject_constant, parse_int=_parse_int)


def from_json(text: str) -> ExportBundle:
    """Parse a JSON coefficient bundle back into an ExportBundle.

    text must be a str.  The document and each of its four sections must be
    JSON objects; NaN, Infinity and -Infinity, which are not JSON, are rejected.
    The literal -0 is read as the float -0.0, so that to_text writes it back.
    """
    try:
        doc = _DECODER.decode(text)
    except (TypeError, ValueError) as exc:  # not a str, malformed, over-long integer, NaN
        raise InvalidParameterError(f"bundle is not valid JSON: {exc}") from exc
    except RecursionError:
        raise InvalidParameterError("bundle is nested too deeply to parse") from None
    if not isinstance(doc, dict):
        raise InvalidParameterError("bundle must be a JSON object")
    try:
        sections = [doc[name] for name in _SECTIONS]
    except KeyError as exc:
        raise InvalidParameterError(f"bundle is missing section {exc}") from exc
    return ExportBundle(*sections)


def to_csv_table(partitions: list[Partition]) -> str:
    """Parameter table in CSV form, one row group (b, p, m) per partition.

    Columns run up to the widest partition; narrower rows leave the
    trailing cells blank.
    """
    if not _instance(partitions, list, "partitions"):
        raise InvalidParameterError("need at least one partition")
    width = max(_instance(p, Partition, "each partition").n_regions for p in partitions)
    lines = ["segments,error," + ",".join(
        ["param"] + [str(i) for i in range(1, width + 1)])]
    for part in partitions:
        segs = part.n_regions + 1
        err = _fmt(part.max_error)
        for label, values in zip("bpm", (part.upper_limits, part.masses, part.cond_means)):
            lines.append(f"{segs},{err},{label}," + ",".join(map(_fmt, values))
                         + "," * (width - len(values)))
    return "\n".join(lines) + "\n"


def _lp_num(x: float) -> str:
    # positional notation (LP parsers dislike exponents), shortest
    # representation that still round-trips the double
    r = repr(float(x))
    if "e" in r:
        r = format(Decimal(r), "f")
    return r[:-2] if r.endswith(".0") else r


def _lp_term(coef: float, var: str) -> str:
    sign = "-" if coef > 0 else "+"
    mag = abs(coef)
    if mag == 1.0:
        return f" {sign} {var}"
    return f" {sign} {_lp_num(mag)} {var}"


# LP-format identifier: at most 255 characters from letters, digits and
# !"#$%&()/,.;?@_`'{}|~, not starting with a digit or a period.  Whitespace,
# the operators <>=:+-*^ and the brackets [] would break the row grammar.
# e or E alone, or followed by a digit, e or E, reads as an exponent.
_LP_NAME = re.compile(r"(?![eE](?:[0-9eE]|\Z))"
                      r"[A-Za-z!\"#$%&()/,;?@_`'{}|~][A-Za-z0-9!\"#$%&()/,.;?@_`'{}|~]{0,254}")


def _check_lp_name(name: str, role: str) -> None:
    if not isinstance(name, str) or _LP_NAME.fullmatch(name) is None:
        raise InvalidParameterError(f"{role} is not a valid LP variable name: {_shown(name)}")


def to_lp_constraints(report: BoundReport, var_x: str = "x", var_L: str = "L") -> str:
    """LP-file constraint text embedding the lower bound's epigraph.

    Each lower-bound segment becomes one inequality
    ``var_L - slope*var_x >= intercept``.  The upper bound, these rows lifted by
    max_error, is ``var_L + max_error``, which needs no rows: a header comment
    states it, and that both bounds are tight where the model minimises var_L.
    Both variable names must be distinct valid LP identifiers.
    """
    _instance(report, BoundReport, "report")
    _check_lp_name(var_x, "var_x")
    _check_lp_name(var_L, "var_L")
    if var_x == var_L:
        raise InvalidParameterError(f"var_x and var_L must differ, both are {var_x!r}")
    lower, scale = report.lower, report.scale
    out = [
        f"\\ {TOOL_NAME} {__version__}: piecewise linear bounds for target"
        f" {report.target}, normal(mu={_lp_num(scale.mu)}, sigma={_lp_num(scale.sigma)})",
        f"\\ lower bound: {var_L} >= slope*{var_x} + intercept, one row per segment",
        f"\\ upper bound: {var_L} + {_lp_num(report.max_error)}, the lower rows lifted by"
        f" max_error; both are tight where the model minimises {var_L}",
        "Subject To",
    ]
    for i, (s, c) in enumerate(zip(lower.slopes, lower.intercepts)):
        lhs = f" lower_{i}: {var_L}"
        if s != 0.0:
            lhs += _lp_term(s, var_x)
        out.append(f"{lhs} >= {_lp_num(c)}")
    out += ["Bounds", f" {var_x} free", f" {var_L} free", "End"]
    return "\n".join(out) + "\n"


def _evaluate_array(pl: PiecewiseLinear, xs: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(np.asarray(pl.breakpoints), xs, side="right")
    s = np.asarray(pl.slopes)[idx]
    c = np.asarray(pl.intercepts)[idx]
    return s * xs + c


def _exact(pl: PiecewiseLinear, x):
    return closs(x, pl.scale) if pl.target == "closs" else loss(x, pl.scale)


def plot_data(report: BoundReport, n_points: int) -> str:
    """CSV of exact/lower/upper values and signed gaps on the standard grid.

    The grid spans mu +- 8 sigma, extended to the outermost breakpoints,
    which both bounds share; a grid whose width overflows is rejected.
    n_points is at most 10**6, which keeps the grid and its text bounded.
    """
    _instance(report, BoundReport, "report")
    n_points = _count(n_points, 2, "n_points must be an integer >= 2", 10**6)
    lower, upper = report.lower, report.upper
    mu, sigma = report.scale.mu, report.scale.sigma
    start = min(mu - 8.0 * sigma, lower.breakpoints[0])
    stop = max(mu + 8.0 * sigma, lower.breakpoints[-1])
    if not math.isfinite(stop - start):
        raise InvalidParameterError(f"plot grid width is not finite (mu={mu!r}, sigma={sigma!r})")
    xs = np.linspace(start, stop, n_points)
    exact = _exact(lower, xs)
    lo = _evaluate_array(lower, xs)
    up = _evaluate_array(upper, xs)
    cols = (xs, exact, lo, up, exact - lo, up - exact)
    lines = ["x,exact,lower,upper,gap_lower,gap_upper"]
    row = ",".join([_REAL] * len(cols))
    lines += [row % values for values in zip(*(c.tolist() for c in cols))]
    return "\n".join(lines) + "\n"
