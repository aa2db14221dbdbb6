"""Serialization of partitions and bounds for MILP embedding and plotting.

JSON, CSV and plot reals use 17 significant digits and LP numbers the
shortest positional form; both round-trip IEEE doubles exactly.  Key order
is fixed, so identical inputs always produce byte-identical text.
Unbounded segment edges are encoded as ``null`` rather than infinity
sentinels.  The text a partition and target fix, whatever the scale, is
rendered on a partition's first export and kept by that partition, as its
bound chain is (_scale_free).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
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


# The bundle schema, filled in two steps.  _json_template fills the %s and %d
# fields with what the partition and target fix; the escaped fields it leaves,
# %s and %.17g once unescaped, take what the scale adds in to_json.  Neither
# the quoted names nor the partition block holds a %.
_DOCUMENT = ('{"metadata": {"tool": %s, "version": %s, "segment_count": %d, "target": %s,'
             ' "kind": "lower_upper_pair", "mu": %%s, "sigma": %%s, "max_error": %%s},'
             ' "lower": {"kind": "lower", "segments": [%s], "breakpoints": [%%s],'
             ' "error_locations": [%%s]}, "upper": {"kind": "upper", "intercept_shift": %%s},'
             ' "partition": %s}\n')
_ROW = '{"slope": %s, "intercept": %%.17g, "domain_low": %s, "domain_high": %s}'
_PARTITION = '{"upper_limits": [%s], "masses": [%s], "cond_means": [%s], "max_error_std": %s}'
_NULL = ("null",)


def _reals(values, head=(), tail=()) -> str:
    """A JSON list body: head, values and tail, the values formatted by one %."""
    return ", ".join([*head, *[_REAL] * len(values), *tail]) % tuple(values)


def _scale_free(report: BoundReport, render):
    """render(report), which must depend only on report's partition and target,
    rendered on first use and kept in the partition's _texts."""
    texts, key = report.partition._texts, (render, report.target)
    text = texts.get(key)
    if text is None:
        text = texts[key] = render(report)
    return text


def _json_template(report: BoundReport) -> str:
    """The JSON document of report with the scale's values left as fields: mu,
    sigma and max_error, then each segment's intercept and domain edges but the
    outer nulls, then the breakpoints twice and max_error again (see to_json)."""
    part, slopes = report.partition, report.lower.slopes
    edges = ["%s"] * (len(slopes) - 1)
    rows = ", ".join(map(_ROW.__mod__, zip(map(_fmt, slopes), ["null", *edges],
                                           [*edges, "null"])))
    block = _PARTITION % (_reals(part.upper_limits[:-1], tail=_NULL), _reals(part.masses),
                          _reals(part.cond_means), _fmt(part.max_error))
    return _DOCUMENT % (_quote(TOOL_NAME), _quote(__version__), len(slopes),
                        _quote(report.target), rows, block)


def to_json(report: BoundReport) -> str:
    """Serialize a bound report to the JSON coefficient bundle.

    The lower block holds one row per segment; segment i spans breakpoints
    i-1 to i, null past either end.  The upper bound is the lower rows lifted
    by max_error, so its block is {"kind": "upper", "intercept_shift":
    max_error}; its error peaks at sigma b + mu for the partition block's
    upper_limits b.  Only the scale's numbers are formatted per call.
    """
    _instance(report, BoundReport, "report")
    lower, scale = report.lower, report.scale
    document = _scale_free(report, _json_template)
    bp, c = list(map(_fmt, lower.breakpoints)), lower.intercepts
    # each row's fields are its intercept, domain_low and domain_high, but for
    # the outer edges, which the template holds as null
    cells = [None] * (3 * len(c) - 2)
    cells[:2], cells[2::3], cells[3::3], cells[4::3] = (c[0], bp[0]), c[1:], bp, bp[1:]
    breakpoints, max_error = ", ".join(bp), _fmt(report.max_error)
    return document % (_fmt(scale.mu), _fmt(scale.sigma), max_error, *cells,
                       breakpoints, breakpoints, max_error)


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
    x = float(x)
    r = repr(x)
    if "e" in r:
        return np.format_float_positional(x, unique=True, trim="-")
    return r[:-2] if r.endswith(".0") else r


def _lp_term(coef: float) -> str:
    """The term of a lower row's slope coef without its variable: none for 0, a
    sign for magnitude 1, else a sign and a magnitude."""
    if coef == 0.0:
        return ""
    sign = "-" if coef > 0 else "+"
    mag = abs(coef)
    return f" {sign} " if mag == 1.0 else f" {sign} {_lp_num(mag)} "


def _lp_terms(report: BoundReport) -> tuple[str, ...]:
    """The term of each lower row's slope (_lp_term)."""
    return tuple(map(_lp_term, report.lower.slopes))


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
    terms = _scale_free(report, _lp_terms)
    out += [f" lower_{i}: {var_L}{t}{var_x if t else ''} >= {_lp_num(c)}"
            for i, (t, c) in enumerate(zip(terms, lower.intercepts))]
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
