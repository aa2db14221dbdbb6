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
from .bounds import BoundReport, PiecewiseLinear, evaluate
from .errors import InvalidParameterError
from .loss_core import closs, loss
from .partition import Partition, check_count

__all__ = [
    "ExportBundle",
    "to_json",
    "from_json",
    "to_csv_table",
    "to_lp_constraints",
    "plot_data",
]

TOOL_NAME = "losslin"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _render(obj) -> str:
    """Deterministic JSON rendering with 17-significant-digit reals.

    Floats are tested first as they are most of a bundle; keys and strings
    are escaped by the C encoder behind json.dumps.
    """
    if isinstance(obj, float):
        return format(obj, ".17g")
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


def _segment_rows(pl: PiecewiseLinear, bp: tuple[float, ...]) -> list[dict]:
    last = len(bp)  # one segment more than breakpoints
    rows = []
    for i, (s, c) in enumerate(zip(pl.slopes, pl.intercepts)):
        rows.append({
            "slope": float(s),
            "intercept": float(c),
            "domain_low": None if i == 0 else float(bp[i - 1]),
            "domain_high": None if i == last else float(bp[i]),
        })
    return rows


def _bound_block(pl: PiecewiseLinear, error_locations) -> dict:
    bp = pl.breakpoints
    return {
        "kind": pl.kind,
        "segments": _segment_rows(pl, bp),
        "breakpoints": [float(b) for b in bp],
        "error_locations": [None if math.isinf(x) else float(x)
                            for x in error_locations],
    }


@dataclass(frozen=True)
class ExportBundle:
    """Parsed form of the JSON coefficient document."""

    metadata: dict
    lower: dict
    upper: dict
    partition: dict

    @classmethod
    def from_report(cls, report: BoundReport) -> "ExportBundle":
        part, lower, scale = report.partition, report.lower, report.scale
        metadata = {
            "tool": TOOL_NAME,
            "version": __version__,
            "segment_count": lower.n_segments,
            "target": report.target,
            "kind": "lower_upper_pair",
            "mu": float(scale.mu),
            "sigma": float(scale.sigma),
            "max_error": float(report.max_error),
        }
        partition = {
            "upper_limits": [None if math.isinf(b) else float(b)
                             for b in part.upper_limits],
            "masses": [float(p) for p in part.masses],
            "cond_means": [float(m) for m in part.cond_means],
            "max_error_std": float(part.max_error),
        }
        return cls(
            metadata=metadata,
            lower=_bound_block(lower, lower.breakpoints),
            upper=_bound_block(report.upper, report.upper_error_locations),
            partition=partition,
        )

    def to_text(self) -> str:
        doc = {
            "metadata": self.metadata,
            "lower": self.lower,
            "upper": self.upper,
            "partition": self.partition,
        }
        return _render(doc) + "\n"


def to_json(report: BoundReport) -> str:
    """Serialize a bound report to the JSON coefficient bundle."""
    return ExportBundle.from_report(report).to_text()


_SECTIONS = ("metadata", "lower", "upper", "partition")


def _reject_constant(name: str):
    raise InvalidParameterError(f"{name} is not a JSON number")


# built once: json.loads with a keyword argument builds a decoder per call
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def from_json(text: str) -> ExportBundle:
    """Parse a JSON coefficient bundle back into an ExportBundle.

    text must be a str.  The document and each of its four sections must be
    JSON objects; NaN, Infinity and -Infinity, which are not JSON, are rejected.
    """
    try:
        doc = _DECODER.decode(text)
    except (TypeError, ValueError) as exc:  # not a str, malformed, over-long integer, NaN
        raise InvalidParameterError(f"bundle is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidParameterError("bundle must be a JSON object")
    try:
        sections = [doc[name] for name in _SECTIONS]
    except KeyError as exc:
        raise InvalidParameterError(f"bundle is missing section {exc}") from exc
    for name, section in zip(_SECTIONS, sections):
        if not isinstance(section, dict):
            raise InvalidParameterError(f"bundle section {name!r} must be a JSON object")
    return ExportBundle(*sections)


def to_csv_table(partitions: list[Partition]) -> str:
    """Parameter table in CSV form, one row group (b, p, m) per partition.

    Columns run up to the widest partition; narrower rows leave the
    trailing cells blank.
    """
    if not partitions:
        raise InvalidParameterError("need at least one partition")
    width = max(p.n_regions for p in partitions)
    lines = ["segments,error," + ",".join(
        ["param"] + [str(i) for i in range(1, width + 1)])]
    for part in partitions:
        segs = part.n_regions + 1
        err = _fmt(part.max_error)
        for label, values in (("b", part.upper_limits),
                              ("p", part.masses),
                              ("m", part.cond_means)):
            cells = [_fmt(v) if math.isfinite(v) else "inf" for v in values]
            cells += [""] * (width - len(cells))
            lines.append(f"{segs},{err},{label}," + ",".join(cells))
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
_LP_NAME = re.compile(r"[A-Za-z!\"#$%&()/,;?@_`'{}|~][A-Za-z0-9!\"#$%&()/,.;?@_`'{}|~]{0,254}")


def _check_lp_name(name: str, role: str) -> None:
    if not isinstance(name, str) or _LP_NAME.fullmatch(name) is None:
        raise InvalidParameterError(f"{role} is not a valid LP variable name: {name!r}")


def to_lp_constraints(report: BoundReport, var_x: str = "x", var_L: str = "L") -> str:
    """LP-file constraint text embedding the lower bound's epigraph.

    Each lower-bound segment becomes one inequality
    ``var_L - slope*var_x >= intercept``.  The upper bound is not a max
    of affine pieces, so it is emitted as a commented breakpoint/value
    node table; the consumer picks a formulation (lambda/SOS2) for it.
    Both variable names must be distinct valid LP identifiers.
    """
    _check_lp_name(var_x, "var_x")
    _check_lp_name(var_L, "var_L")
    if var_x == var_L:
        raise InvalidParameterError(f"var_x and var_L must differ, both are {var_x!r}")
    lower, upper, scale = report.lower, report.upper, report.scale
    out = [
        f"\\ {TOOL_NAME} {__version__}: piecewise linear bounds for target"
        f" {report.target}, normal(mu={_lp_num(scale.mu)}, sigma={_lp_num(scale.sigma)})",
        f"\\ lower bound: {var_L} >= slope*{var_x} + intercept, one row per segment",
        "Subject To",
    ]
    for i, (s, c) in enumerate(zip(lower.slopes, lower.intercepts)):
        lhs = f" lower_{i}: {var_L}"
        if s != 0.0:
            lhs += _lp_term(s, var_x)
        out.append(f"{lhs} >= {_lp_num(c)}")
    out.append("\\ upper bound nodes (x, value); slope 0 before the first node,")
    out.append("\\ slope 1 after the last; apply a lambda or SOS2 formulation")
    for i, bx in enumerate(upper.breakpoints):
        out.append(f"\\ node_{i}: x = {_lp_num(bx)}, value = {_lp_num(evaluate(upper, bx))}")
    out.append("Bounds")
    out.append(f" {var_x} free")
    out.append(f" {var_L} free")
    out.append("End")
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
    """
    n_points = check_count(n_points, 2, "n_points must be an integer >= 2")
    lower, upper = report.lower, report.upper
    mu, sigma = report.scale.mu, report.scale.sigma
    start = min(mu - 8.0 * sigma, lower.breakpoints[0])
    stop = max(mu + 8.0 * sigma, lower.breakpoints[-1])
    if not math.isfinite(stop - start):
        raise InvalidParameterError(f"plot grid width is not finite (mu={mu!r}, sigma={sigma!r})")
    xs = np.linspace(start, stop, n_points)
    exact = np.asarray(_exact(lower, xs), dtype=float)
    lo = _evaluate_array(lower, xs)
    up = _evaluate_array(upper, xs)
    cols = (xs, exact, lo, up, exact - lo, up - exact)
    lines = ["x,exact,lower,upper,gap_lower,gap_upper"]
    lines += ["%.17g,%.17g,%.17g,%.17g,%.17g,%.17g" % row
              for row in zip(*(c.tolist() for c in cols))]
    return "\n".join(lines) + "\n"
