import json
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from pytest import approx

import losslin
from losslin import (
    BoundReport,
    InvalidParameterError,
    NormalParams,
    Partition,
    PiecewiseLinear,
    build_report,
    from_json,
    parameter_table,
    plot_data,
    solve_minimax,
    to_csv_table,
    to_json,
    to_lp_constraints,
)
from losslin import export_io

from reference_table import REFERENCE

_CONSTRAINT = re.compile(
    r"^\s*\w+:"                                   # label
    r"(\s*[+-]?\s*(\d+(\.\d+)?\s+)?[A-Za-z]\w*)+"  # linear terms
    r"\s*(<=|>=|=)\s*[+-]?\d+(\.\d+)?\s*$")


def lp_sections(text: str):
    """Split LP text into comments, constraint rows and trailing sections."""
    comments, constraints, rest = [], [], []
    bucket = None
    for line in text.splitlines():
        if line.startswith("\\"):
            comments.append(line)
        elif line.strip() == "Subject To":
            bucket = constraints
        elif line.strip() in ("Bounds", "End"):
            bucket = rest
        elif line.strip():
            (bucket if bucket is not None else rest).append(line)
    return comments, constraints, rest


def parse_epigraph_row(row: str, var_x: str = "x", var_l: str = "L"):
    """Read (slope, intercept) back from an 'L - slope x >= intercept' row."""
    body = row.split(":", 1)[1]
    lhs, rhs = body.split(">=")
    lhs = lhs.strip()
    assert lhs.startswith(var_l)
    rest = lhs[len(var_l):].strip()
    if not rest:
        coef = 0.0
    else:
        sign = -1.0 if rest[0] == "-" else 1.0
        term = rest[1:].strip()
        assert term.endswith(var_x)
        mag = term[:-len(var_x)].strip()
        coef = sign * (float(mag) if mag else 1.0)
    return -coef + 0.0, float(rhs)


class TestJson:
    def test_single_region_document(self):
        doc = json.loads(to_json(build_report(solve_minimax(1))))
        assert doc["metadata"]["segment_count"] == 2
        assert doc["metadata"]["mu"] == 0.0
        assert doc["metadata"]["sigma"] == 1.0
        segs = doc["lower"]["segments"]
        assert [s["slope"] for s in segs] == [0.0, 1.0]
        assert segs[0]["domain_low"] is None
        assert segs[-1]["domain_high"] is None

    def test_scaled_max_error_field(self):
        doc = json.loads(to_json(build_report(solve_minimax(4),
                                              NormalParams(20.0, 5.0))))
        assert doc["metadata"]["max_error"] == approx(0.169526, abs=1e-5)

    def test_segment_domains_tile_the_line(self):
        doc = json.loads(to_json(build_report(solve_minimax(5))))
        for block in (doc["lower"], doc["upper"]):
            segs = block["segments"]
            for left, right in zip(segs, segs[1:]):
                assert left["domain_high"] == right["domain_low"]

    def test_round_trip_is_byte_identical(self):
        for n in (1, 4, 7):
            text = to_json(build_report(solve_minimax(n), NormalParams(2.5, 0.75)))
            assert from_json(text).to_text() == text

    def test_round_trip_preserves_reals_bit_exactly(self):
        report = build_report(solve_minimax(6), NormalParams(20.0, 5.0))
        doc = json.loads(to_json(report))
        segs = doc["lower"]["segments"]
        assert [s["slope"] for s in segs] == list(report.lower.slopes)
        assert [s["intercept"] for s in segs] == list(report.lower.intercepts)
        assert doc["lower"]["breakpoints"] == list(report.lower.breakpoints)

    def test_deterministic_output(self):
        a = to_json(build_report(solve_minimax(3)))
        b = to_json(build_report(solve_minimax(3)))
        assert a == b

    def test_from_json_rejects_truncated_document(self):
        with pytest.raises(InvalidParameterError):
            from_json('{"metadata": {}}')

    @pytest.mark.parametrize("text", [
        "[]", "1", "nope", "", b"\xff{}", "9" * 5000,
        '{"metadata": 1, "lower": 2, "upper": 3, "partition": 4}',
        '{"metadata": {}, "lower": {}, "upper": [], "partition": {}}',
    ])
    def test_from_json_rejects_malformed_documents(self, text):
        with pytest.raises(InvalidParameterError):
            from_json(text)


# The export bytes of the report of the boundary 0 at NormalParams(-12.3, 0.37)
# for the loss target (the values of build_report(solve_minimax(2), ...)).
# The report is derived from that one boundary, so it depends on exp and
# erfc at 0 and +-sqrt(2/pi) only, and _literal_report checks every derived
# value against literals before the export text is compared.  Both strings
# were recorded with the json.dumps-based renderer that _render replaced
# (kept below as _reference_render).  "@V@" stands for the package version.
# max_error is (phi(m) - phi(0)) + m (Phi(m) - 1/2) at m = sqrt(2/pi), in
# either region by symmetry; the ungrouped form of the upper region,
# closs_std(m) - m, gives 1 ulp more, which
# test_n2_max_error_pin_is_nearer_the_truth shows is further from mpmath's value.
_N2_MAX_ERROR = 0.1206560496714961
_N2_MAX_ERROR_UNGROUPED = 0.12065604967149612
_LITERAL_JSON = (
    '{"metadata": {"tool": "losslin", "version": "@V@", "segment_count": 3, '
    '"target": "loss", "kind": "lower_upper_pair", '
    '"mu": -12.300000000000001, "sigma": 0.37, '
    '"max_error": 0.044642738378453554}, "lower": {"kind": "lower", '
    '"segments": [{"slope": -1, "intercept": -12.300000000000001, '
    '"domain_low": null, "domain_high": -12.595217287497061}, '
    '{"slope": -0.5, "intercept": -6.0023913562514704, '
    '"domain_low": -12.595217287497061, "domain_high": -12.004782712502941}, '
    '{"slope": 0, "intercept": 0, "domain_low": -12.004782712502941, '
    '"domain_high": null}], "breakpoints": [-12.595217287497061, '
    '-12.004782712502941], "error_locations": [-12.595217287497061, '
    '-12.004782712502941]}, "upper": {"kind": "upper", '
    '"segments": [{"slope": -1, "intercept": -12.255357261621548, '
    '"domain_low": null, "domain_high": -12.595217287497061}, '
    '{"slope": -0.5, "intercept": -5.9577486178730164, '
    '"domain_low": -12.595217287497061, "domain_high": -12.004782712502941}, '
    '{"slope": 0, "intercept": 0.044642738378453554, '
    '"domain_low": -12.004782712502941, "domain_high": null}], '
    '"breakpoints": [-12.595217287497061, -12.004782712502941], '
    '"error_locations": [null, -12.300000000000001, null]}, '
    '"partition": {"upper_limits": [0, null], "masses": [0.5, 0.5], '
    '"cond_means": [-0.79788456080286541, 0.79788456080286541], '
    '"max_error_std": 0.1206560496714961}}\n'
)
_LITERAL_LP = (
    '\\ losslin @V@: piecewise linear bounds for target loss, normal(mu=-12.3, sigma=0.37)\n'
    '\\ lower bound: L >= slope*x + intercept, one row per segment\n'
    'Subject To\n'
    ' lower_0: L + x >= -12.3\n'
    ' lower_1: L + 0.5 x >= -6.00239135625147\n'
    ' lower_2: L >= 0\n'
    '\\ upper bound nodes (x, value); slope 0 before the first node,\n'
    '\\ slope 1 after the last; apply a lambda or SOS2 formulation\n'
    '\\ node_0: x = -12.59521728749706, value = 0.339860025875514\n'
    '\\ node_1: x = -12.00478271250294, value = 0.044642738378454005\n'
    'Bounds\n'
    ' x free\n'
    ' L free\n'
    'End\n'
)


def _literal_report():
    m, e = 0.7978845608028654, _N2_MAX_ERROR
    scale = NormalParams(-12.3, 0.37)
    part = Partition.from_boundaries((0.0,))
    assert (part.masses, part.cond_means, part.max_error) == ((0.5, 0.5), (-m, m), e)
    report = BoundReport(part, scale, "loss")
    slopes = (-1.0, -0.5, 0.0)
    assert report.lower == PiecewiseLinear((-m, m), slopes, (0.0, 0.3989422804014327, 0.0),
                                           "lower", "loss", scale)
    assert report.upper == PiecewiseLinear((-m, m), slopes, (e, 0.5195983300729288, e),
                                           "upper", "loss", scale)
    assert report.max_error == 0.044642738378453554
    assert report.lower.breakpoints == (-12.59521728749706, -12.00478271250294)
    assert report.upper_error_locations == (-math.inf, -12.3, math.inf)
    return report


def test_literal_report_exports_are_pinned():
    report = _literal_report()
    assert to_json(report) == _LITERAL_JSON.replace("@V@", losslin.__version__)
    assert to_lp_constraints(report) == _LITERAL_LP.replace("@V@", losslin.__version__)


def test_n2_max_error_pin_is_nearer_the_truth():
    with mpmath.workdps(40):
        m = mpmath.sqrt(2 / mpmath.pi)
        exact = mpmath.npdf(m) - mpmath.npdf(0) + m * (mpmath.ncdf(m) - mpmath.mpf(1) / 2)
        new, old = (abs(mpmath.mpf(v) - exact) for v in (_N2_MAX_ERROR, _N2_MAX_ERROR_UNGROUPED))
    assert new < old
    assert Partition.from_boundaries((0.0,)).max_error == _N2_MAX_ERROR


def _reference_render(obj) -> str:
    """The json.dumps-based renderer that wrote exports before _render."""
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = (f"{json.dumps(k)}: {_reference_render(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_reference_render(v) for v in obj) + "]"
    raise TypeError(type(obj).__name__)


@pytest.mark.parametrize("scale", [NormalParams(0.0, 1.0), NormalParams(-12.3, 0.37)],
                         ids=["standard", "scaled"])
@pytest.mark.parametrize("target", ["closs", "loss"])
@pytest.mark.parametrize("segments", [2, 5, 12, 31])
def test_json_matches_the_reference_renderer(segments, target, scale):
    report = build_report(solve_minimax(segments - 1), scale, target)
    b = export_io.ExportBundle.from_report(report)
    doc = {"metadata": b.metadata, "lower": b.lower, "upper": b.upper,
           "partition": b.partition}
    assert to_json(report) == _reference_render(doc) + "\n"


class TestRender:
    """_render spells every JSON value as json.dumps would, reals as .17g."""

    @pytest.mark.parametrize("value, text", [
        (True, "true"), (False, "false"), (None, "null"),
        (0, "0"), (-7, "-7"), (2**70, str(2**70)),
        (-0.0, "-0"), (0.1, "0.10000000000000001"), (1e300, "1.0000000000000001e+300"),
        ("plain", '"plain"'), ('q"\\\n\u00e9\u2603', json.dumps('q"\\\n\u00e9\u2603')),
        ([], "[]"), ((), "[]"), ({}, "{}"),
        ([1, [2.5, (None, "a")], {"k": (True,)}], '[1, [2.5, [null, "a"]], {"k": [true]}]'),
        ({"a": {"b": [-0.0]}, "é": 1}, '{"a": {"b": [-0]}, "\\u00e9": 1}'),
    ])
    def test_values(self, value, text):
        assert export_io._render(value) == text

    def test_subclasses_render_as_their_base_type(self):
        assert export_io._render(np.float64(0.1)) == "0.10000000000000001"
        assert export_io._render(np.float64(-0.0)) == "-0"

    def test_unserialisable_values_and_keys_are_rejected(self):
        with pytest.raises(InvalidParameterError):
            export_io._render({"a": object()})
        with pytest.raises(InvalidParameterError):
            export_io._render({1: 2.0})


def test_exports_carry_the_package_version():
    report = build_report(solve_minimax(3))
    assert json.loads(to_json(report))["metadata"]["version"] == losslin.__version__
    header = to_lp_constraints(report).splitlines()[0]
    assert header.startswith(f"\\ losslin {losslin.__version__}:")


class TestCsvTable:
    def test_reference_regression(self):
        text = to_csv_table(parameter_table(11))
        rows = {}
        for line in text.splitlines()[1:]:
            cells = line.split(",")
            segments, label = int(cells[0]), cells[2]
            rows.setdefault(segments, {"error": float(cells[1])})[label] = [
                float("inf") if c == "inf" else float(c)
                for c in cells[3:] if c != ""
            ]
        for segments, ref in REFERENCE.items():
            got = rows[segments]
            assert got["error"] == approx(ref["error"], abs=1e-4)
            for key in ("b", "p", "m"):
                finite_ref = [v for v in ref[key] if math.isfinite(v)]
                finite_got = [v for v in got[key] if math.isfinite(v)]
                assert finite_got == approx(finite_ref, abs=1e-4)
                assert len(got[key]) == len(ref[key])

    def test_single_partition_row(self):
        text = to_csv_table([solve_minimax(1)])
        lines = text.splitlines()
        assert lines[0] == "segments,error,param,1"
        assert lines[1].startswith("2,0.39894228040143")
        assert lines[1].endswith(",b,inf")

    def test_trailing_blanks_for_narrow_rows(self):
        text = to_csv_table([solve_minimax(1), solve_minimax(3)])
        narrow = [l for l in text.splitlines() if l.startswith("2,")]
        assert all(l.endswith(",,") for l in narrow)

    def test_requires_partitions(self):
        with pytest.raises(InvalidParameterError):
            to_csv_table([])


class TestLpConstraints:
    def test_single_region_epigraph(self):
        text = to_lp_constraints(build_report(solve_minimax(1)))
        _, constraints, _ = lp_sections(text)
        assert [c.strip() for c in constraints] == [
            "lower_0: L >= 0",
            "lower_1: L - x >= 0",
        ]

    def test_four_region_slopes(self):
        text = to_lp_constraints(build_report(solve_minimax(4)))
        _, constraints, _ = lp_sections(text)
        assert len(constraints) == 5
        slopes = sorted(parse_epigraph_row(row)[0] for row in constraints)
        assert slopes == approx([0.0, 0.187555, 0.5, 0.812445, 1.0], abs=1e-5)

    def test_grammar(self):
        for n, scale in ((1, None), (4, None), (5, NormalParams(20.0, 5.0))):
            report = build_report(solve_minimax(n), scale or NormalParams())
            _, constraints, _ = lp_sections(to_lp_constraints(report))
            for row in constraints:
                assert _CONSTRAINT.match(row), row

    def test_scaling_moves_intercepts_not_slopes(self):
        p = solve_minimax(4)

        def coefficients(text):
            _, constraints, _ = lp_sections(text)
            return [parse_epigraph_row(row) for row in constraints]

        std = coefficients(to_lp_constraints(build_report(p)))
        scaled = coefficients(to_lp_constraints(
            build_report(p, NormalParams(20.0, 5.0))))
        for (s_std, c_std), (s_sc, c_sc) in zip(std, scaled):
            assert s_sc == approx(s_std, abs=1e-12)
            assert c_sc == approx(5.0 * c_std - s_std * 20.0, abs=1e-9)

    def test_upper_nodes_emitted_as_comments(self):
        report = build_report(solve_minimax(4))
        comments, _, _ = lp_sections(to_lp_constraints(report))
        nodes = [c for c in comments if c.startswith("\\ node_")]
        assert len(nodes) == 4

    def test_custom_variable_names(self):
        text = to_lp_constraints(build_report(solve_minimax(2)), "q", "cost")
        _, constraints, _ = lp_sections(text)
        assert all("cost" in row for row in constraints)
        assert any(" q " in row or row.rstrip().endswith(" q >= 0") for row in constraints)

    @pytest.mark.parametrize("name", [
        "2q", ".x", "L>=", "a b", "x\t", "a-b", "a+b", "a:b", "a*b", "a^2",
        "a<b", "a=b", "a[1]", "", "x" * 256,
    ])
    def test_rejects_invalid_variable_names(self, name):
        report = build_report(solve_minimax(2))
        with pytest.raises(InvalidParameterError):
            to_lp_constraints(report, name, "L")
        with pytest.raises(InvalidParameterError):
            to_lp_constraints(report, "x", name)

    def test_rejects_equal_variable_names(self):
        with pytest.raises(InvalidParameterError):
            to_lp_constraints(build_report(solve_minimax(2)), "v", "v")

    @pytest.mark.parametrize("name", ["x_1", "a.b", "Cost", "y" * 255, "(q)", "z#"])
    def test_accepts_valid_variable_names(self, name):
        text = to_lp_constraints(build_report(solve_minimax(4)), name, "L")
        _, constraints, rest = lp_sections(text)
        assert sum(f" {name} >= " in row for row in constraints) == 4
        assert f" {name} free" in rest


def _numpy_lp_num(x: float) -> str:
    """The numpy formatter _lp_num replaced: shortest round-trip, positional."""
    return np.format_float_positional(x, unique=True, trim="-")


class TestLpNumber:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_matches_numpy_positional(self, x):
        assert export_io._lp_num(x) == _numpy_lp_num(x)

    @pytest.mark.parametrize("x", [
        0.0, -0.0, 1.0, -3.0, 0.1, 1e-5, 1e15, 1e16, 1e22, 1.5e300,
        5e-324, -2.5e-310, 1.7976931348623157e308, 9007199254740993.0])
    def test_edge_values(self, x):
        text = export_io._lp_num(x)
        assert text == _numpy_lp_num(x)
        assert "e" not in text and float(text) == x


class TestPlotData:
    def test_columns_and_header(self):
        text = plot_data(build_report(solve_minimax(2)), 101)
        lines = text.splitlines()
        assert lines[0] == "x,exact,lower,upper,gap_lower,gap_upper"
        assert len(lines) == 102
        assert all(len(l.split(",")) == 6 for l in lines[1:])

    def test_gap_column_peak(self):
        text = plot_data(build_report(solve_minimax(4)), 100001)
        rows = np.loadtxt(text.splitlines()[1:], delimiter=",")
        assert rows[:, 4].max() == approx(0.0339052, abs=1e-4)

    def test_gaps_stay_nonnegative(self):
        for n in (1, 3, 5):
            report = build_report(solve_minimax(n), NormalParams(-3.0, 0.25))
            rows = np.loadtxt(plot_data(report, 5001).splitlines()[1:],
                              delimiter=",")
            assert rows[:, 4].min() >= -1e-9
            assert rows[:, 5].min() >= -1e-9

    def test_error_envelope_shrinks_with_segments(self):
        peaks = []
        for segments in range(2, 7):
            report = build_report(solve_minimax(segments - 1))
            rows = np.loadtxt(plot_data(report, 20001).splitlines()[1:],
                              delimiter=",")
            peaks.append(rows[:, 4].max())
        assert all(a > b for a, b in zip(peaks, peaks[1:]))

    def test_point_count_floor(self):
        with pytest.raises(InvalidParameterError):
            plot_data(build_report(solve_minimax(2)), 1)

    @pytest.mark.parametrize("n_points", [True, 5.0, "5"])
    def test_non_integer_point_count_rejected(self, n_points):
        with pytest.raises(InvalidParameterError, match="^n_points must be an integer >= 2$"):
            plot_data(build_report(solve_minimax(2)), n_points)

    def test_numpy_integer_point_count_accepted(self):
        report = build_report(solve_minimax(2))
        assert plot_data(report, np.int64(5)) == plot_data(report, 5)

    def test_cells_are_17_significant_digits(self):
        for scale in (NormalParams(), NormalParams(-3.0, 0.25), NormalParams(1e6, 1e-3)):
            text = plot_data(build_report(solve_minimax(5), scale), 2001)
            for line in text.splitlines()[1:]:
                for cell in line.split(","):
                    assert format(float(cell), ".17g") == cell
