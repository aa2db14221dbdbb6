import gc
import json
import math
import re
import weakref
from bisect import bisect_right
from collections import Counter
from decimal import Decimal
from functools import cache

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    inv_cdf,
    parameter_table,
    phi,
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
        segs = doc["lower"]["segments"]
        for left, right in zip(segs, segs[1:]):
            assert left["domain_high"] == right["domain_low"]
        assert doc["upper"] == {"kind": "upper",
                                "intercept_shift": doc["metadata"]["max_error"]}

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
        "[]", "1", "nope", "", b"\xff{}", None, "9" * 5000,
        '{"metadata": 1, "lower": 2, "upper": 3, "partition": 4}',
        '{"metadata": {}, "lower": {}, "upper": [], "partition": {}}',
    ])
    def test_from_json_rejects_malformed_documents(self, text):
        with pytest.raises(InvalidParameterError):
            from_json(text)

    def test_bundle_sections_must_be_dicts(self):
        with pytest.raises(InvalidParameterError,
                           match="^bundle section 'upper' must be a JSON object$"):
            losslin.ExportBundle({}, {}, [], {})

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_from_json_rejects_non_json_constants(self, constant):
        # json.loads reads these, and to_text would write them back as nan/inf
        text = to_json(build_report(solve_minimax(3))).replace(
            '"mu": 0,', f'"mu": {constant},', 1)
        assert constant in text
        with pytest.raises(InvalidParameterError, match=f"{constant} is not a JSON number"):
            from_json(text)

    def test_negative_zero_survives_the_round_trip(self):
        # a scale stores mu = -0.0 as 0.0, so the -0 comes from a bundle built by hand
        text = losslin.ExportBundle({"mu": -0.0}, {}, {}, {}).to_text()
        assert '"mu": -0' in text
        mu = from_json(text).metadata["mu"]
        assert mu == 0.0 and math.copysign(1.0, mu) == -1.0
        assert from_json(text).to_text() == text

    def test_from_json_rejects_too_deep_nesting(self):
        with pytest.raises(InvalidParameterError, match="^bundle is nested too deeply to parse$"):
            from_json('{"metadata": ' + "[" * 100_000)

    def test_to_text_rejects_too_deep_nesting(self):
        # built directly: the depth at which parsing fails differs across Python versions
        deep = []
        for _ in range(5000):
            deep = [deep]
        bundle = losslin.ExportBundle({"a": deep}, {}, {}, {})
        with pytest.raises(InvalidParameterError, match="^bundle is nested too deeply to render$"):
            bundle.to_text()

    def test_from_json_reads_text_only(self):
        text = to_json(build_report(solve_minimax(3)))
        with pytest.raises(InvalidParameterError, match="^bundle is not valid JSON: "):
            from_json(text.encode())


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
    '"intercept_shift": 0.044642738378453554}, '
    '"partition": {"upper_limits": [0, null], "masses": [0.5, 0.5], '
    '"cond_means": [-0.79788456080286541, 0.79788456080286541], '
    '"max_error_std": 0.1206560496714961}}\n'
)
# The same report in the layout to_json wrote before the upper block became
# the lower rows plus intercept_shift: its own rows, breakpoints and error
# locations.  from_json still reads it, byte for byte.
_OLD_LAYOUT_JSON = (
    _LITERAL_JSON[:_LITERAL_JSON.index('"upper": ')]
    + '"upper": {"kind": "upper", '
    '"segments": [{"slope": -1, "intercept": -12.255357261621548, '
    '"domain_low": null, "domain_high": -12.595217287497061}, '
    '{"slope": -0.5, "intercept": -5.9577486178730164, '
    '"domain_low": -12.595217287497061, "domain_high": -12.004782712502941}, '
    '{"slope": 0, "intercept": 0.044642738378453554, '
    '"domain_low": -12.004782712502941, "domain_high": null}], '
    '"breakpoints": [-12.595217287497061, -12.004782712502941], '
    '"error_locations": [null, -12.300000000000001, null]}, '
    + _LITERAL_JSON[_LITERAL_JSON.index('"partition": '):]
)
_LITERAL_LP = (
    '\\ losslin @V@: piecewise linear bounds for target loss, normal(mu=-12.3, sigma=0.37)\n'
    '\\ lower bound: L >= slope*x + intercept, one row per segment\n'
    '\\ upper bound: L + 0.044642738378453554, the lower rows lifted by max_error;'
    ' both are tight where the model minimises L\n'
    'Subject To\n'
    ' lower_0: L + x >= -12.3\n'
    ' lower_1: L + 0.5 x >= -6.00239135625147\n'
    ' lower_2: L >= 0\n'
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
    slopes = (0.0, 0.5, 1.0)
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


def test_old_layout_bundles_still_round_trip():
    text = _OLD_LAYOUT_JSON.replace("@V@", losslin.__version__)
    bundle = from_json(text)
    assert [s["intercept"] for s in bundle.upper["segments"]] == list(
        _literal_report().upper.intercepts)
    assert bundle.to_text() == text


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


def _reference_doc(report: BoundReport) -> dict:
    """The bundle schema filled from the report's public fields: the lower
    block from the lower bound, the upper block from max_error."""

    def block(pl: PiecewiseLinear) -> dict:
        bp = pl.breakpoints
        segments = [{"slope": float(s), "intercept": float(c),
                     "domain_low": None if i == 0 else float(bp[i - 1]),
                     "domain_high": None if i == len(bp) else float(bp[i])}
                    for i, (s, c) in enumerate(zip(pl.slopes, pl.intercepts))]
        return {"kind": pl.kind, "segments": segments,
                "breakpoints": [float(b) for b in bp],
                "error_locations": [float(b) for b in bp]}

    part, scale = report.partition, report.scale
    return {
        "metadata": {"tool": "losslin", "version": losslin.__version__,
                     "segment_count": report.lower.n_segments, "target": report.target,
                     "kind": "lower_upper_pair", "mu": float(scale.mu),
                     "sigma": float(scale.sigma), "max_error": float(report.max_error)},
        "lower": block(report.lower),
        "upper": {"kind": "upper", "intercept_shift": float(report.max_error)},
        "partition": {"upper_limits": [None if math.isinf(b) else float(b)
                                       for b in part.upper_limits],
                      "masses": [float(p) for p in part.masses],
                      "cond_means": [float(m) for m in part.cond_means],
                      "max_error_std": float(part.max_error)},
    }


@pytest.mark.parametrize("scale", [NormalParams(0.0, 1.0), NormalParams(-12.3, 0.37)],
                         ids=["standard", "scaled"])
@pytest.mark.parametrize("target", ["closs", "loss"])
@pytest.mark.parametrize("segments", [2, 5, 12, 31])
def test_json_matches_the_reference_renderer(segments, target, scale):
    report = build_report(solve_minimax(segments - 1), scale, target)
    assert to_json(report) == _reference_render(_reference_doc(report)) + "\n"


@cache
def _solved(segments: int) -> Partition:
    return solve_minimax(segments - 1)


_MAGNITUDES = st.floats(min_value=1e-3, max_value=1e12)


@settings(max_examples=100, deadline=None)
@example(segments=1000, target="closs", mu=-3.5e9, sigma=0.02)
@example(segments=1000, target="loss", mu=0.0, sigma=1.0)
@example(segments=2, target="closs", mu=-0.0, sigma=1.0)
@given(
    segments=st.integers(min_value=2, max_value=40),
    target=st.sampled_from(("closs", "loss")),
    mu=st.one_of(st.sampled_from((0.0, -0.0)), _MAGNITUDES, _MAGNITUDES.map(lambda m: -m)),
    sigma=st.floats(min_value=1e-3, max_value=1e3),
)
def test_json_is_the_reference_rendering_byte_for_byte(segments, target, mu, sigma):
    try:
        report = build_report(_solved(segments), NormalParams(mu, sigma), target)
    except InvalidParameterError:  # a domain-scale value is not finite
        assume(False)
    text = to_json(report)
    assert text == _reference_render(_reference_doc(report)) + "\n"
    assert from_json(text).to_text() == text


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from((1, 2, 10, 30)),
    mu=st.floats(min_value=-10.0, max_value=10.0),
    sigma=st.floats(min_value=0.1, max_value=10.0),
    target=st.sampled_from(("closs", "loss")),
)
def test_json_upper_block_bounds_the_exact_function_from_above(n, mu, sigma, target):
    # the scales of test_bounds.test_sandwich_property; the bundle alone is read
    scale = NormalParams(mu, sigma)
    doc = json.loads(to_json(build_report(_solved(n + 1), scale, target)))
    rows, bp = doc["lower"]["segments"], doc["lower"]["breakpoints"]
    shift = doc["upper"]["intercept_shift"]
    exact = losslin.closs if target == "closs" else losslin.loss

    def gap(x):  # the lower row whose domain holds x, lifted, less the exact value
        row = rows[bisect_right(bp, x)]
        return row["slope"] * x + row["intercept"] + shift - exact(x, scale)

    # the upper bound meets the function at the lower breakpoints, and its
    # error peaks, at max_error, at sigma b + mu
    assert [gap(x) for x in bp] == approx([0.0] * len(bp), abs=1e-9)
    peaks = [sigma * b + mu for b in doc["partition"]["upper_limits"][:-1]]
    assert [gap(x) for x in peaks] == approx([shift] * len(peaks), abs=1e-9)
    assert min(map(gap, bp + peaks)) >= -1e-12 * (1.0 + abs(mu) + sigma)
    assert shift == doc["metadata"]["max_error"] > 0.0


def _exports(part: Partition, scale: NormalParams, target: str) -> tuple[str, str, str]:
    report = BoundReport(part, scale, target)
    return to_json(report), to_lp_constraints(report), to_lp_constraints(report, "q", "cost")


class TestScaleFreeMemo:
    """Partition._texts: what a partition and target fix is rendered once per partition object."""

    SCALES = (NormalParams(0.0, 1.0), NormalParams(-12.3, 0.37), NormalParams(20.0, 5.0),
              NormalParams(1e6, 1e-2), NormalParams(-1e6, 1e-2), NormalParams(-1e8, 1.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("segments", [2, 3, 12, 31])
    def test_a_hit_writes_the_bytes_of_a_miss(self, segments):
        solved = solve_minimax(segments - 1)
        for scale in self.SCALES:
            for target in ("closs", "loss"):
                part = Partition(solved.upper_limits)
                assert "_texts" not in vars(part)
                miss = _exports(part, scale, target)
                kept = dict(part._texts)  # the JSON template and the LP terms
                hit = _exports(part, scale, target)
                assert len(kept) == 2
                assert all(part._texts[key] is text for key, text in kept.items())
                # an equal partition is another object, so it is rendered anew
                assert miss == hit == _exports(Partition(part.upper_limits), scale, target)

    def test_equal_partitions_render_their_own_texts_once(self, monkeypatch):
        renders = Counter()

        def counted(render):
            def wrapper(report):
                renders[render.__name__, id(report.partition), report.target] += 1
                return render(report)
            return wrapper

        for name in ("_json_template", "_lp_terms"):
            monkeypatch.setattr(export_io, name, counted(getattr(export_io, name)))
        part = solve_minimax(30)
        twin = Partition(part.upper_limits)
        for _ in range(10):
            for p in (part, twin):
                for target in ("closs", "loss"):
                    report = BoundReport(p, NormalParams(3.0, 2.0), target)
                    to_json(report), to_lp_constraints(report)
        assert len(renders) == 8 and set(renders.values()) == {1}

    def test_equal_partitions_export_equal_bytes_whatever_their_sign_of_zero(self):
        # a -0.0 limit is read as 0.0, so equal partitions print the same zero
        neg, pos = Partition((-0.0, math.inf)), Partition((0.0, math.inf))
        assert neg == pos
        for _ in range(2):
            text = to_json(BoundReport(neg))
            assert '"upper_limits": [0, null]' in text and text == to_json(BoundReport(pos))
            assert to_csv_table([neg]) == to_csv_table([pos])

    def test_an_entry_lives_only_as_long_as_its_partition(self):
        part = solve_minimax(4)
        report = BoundReport(part, NormalParams(20.0, 5.0), "loss")
        to_json(report), to_lp_constraints(report)
        assert set(part._texts) == {(export_io._json_template, "loss"),
                                    (export_io._lp_terms, "loss")}
        alive = weakref.ref(part)
        del part, report
        gc.collect()
        # no state outside the partition holds it
        assert alive() is None

    @pytest.mark.parametrize("regions", [1, 30, 10000])
    def test_an_export_never_hashes_its_partition(self, regions, monkeypatch):
        part = _solved(regions + 1)

        def unhashable(self):
            raise AssertionError("an export hashed its partition")

        monkeypatch.setattr(Partition, "__hash__", unhashable)
        for target in ("closs", "loss"):
            report = BoundReport(part, NormalParams(-4.0, 3.0), target)
            assert to_json(report) == to_json(report)
            assert to_lp_constraints(report) == to_lp_constraints(report)


class TestEqualArguments:
    """A certified object is its constructor arguments: objects built from equal
    but distinct arguments are ==, hash and repr alike, and export equal bytes."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("regions", [1, 30, 1000, 4038])
    @pytest.mark.parametrize("target", ["closs", "loss"])
    def test_equal_arguments_give_equal_objects_and_bytes(self, regions, target):
        part = solve_minimax(regions)
        pairs = [(part, Partition(part.upper_limits)),
                 (NormalParams(-0.0, 1.0), NormalParams(0.0, 1.0))]
        reports = tuple(BoundReport(p, s, target) for p, s in zip(*pairs))
        for a, b in pairs + [reports]:
            assert a is not b and a == b
            assert hash(a) == hash(b) and repr(a) == repr(b)
        r = reports[0]
        assert r.upper.intercepts == reports[1].upper.intercepts
        assert repr(r) == (f"BoundReport(partition={r.partition!r}, scale={r.scale!r},"
                           f" target={r.target!r})")
        assert to_csv_table([pairs[0][0]]) == to_csv_table([pairs[0][1]])
        for export in (to_json, to_lp_constraints, lambda report: plot_data(report, 201)):
            assert export(reports[0]) == export(reports[1])


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

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, np.float64(math.inf)])
    def test_non_finite_floats_are_rejected(self, value):
        with pytest.raises(InvalidParameterError, match="is not a JSON number$"):
            export_io._render({"x": [value]})

    def test_overflowed_literal_is_not_written_back(self):
        # 1e400 parses to inf, which has no JSON spelling
        bundle = from_json('{"metadata": {"mu": 1e400}, "lower": {}, "upper": {}, "partition": {}}')
        with pytest.raises(InvalidParameterError, match="^inf is not a JSON number$"):
            bundle.to_text()


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

    def test_upper_bound_is_the_lifted_lower_bound(self):
        report = build_report(solve_minimax(4), NormalParams(20.0, 5.0))
        comments, _, _ = lp_sections(to_lp_constraints(report, "q", "cost"))
        upper = [c for c in comments if c.startswith("\\ upper bound: ")]
        assert upper == [f"\\ upper bound: cost + {export_io._lp_num(report.max_error)}, the"
                         " lower rows lifted by max_error; both are tight where the model"
                         " minimises cost"]
        assert report.upper.slopes == report.lower.slopes
        lifted = [c + report.max_error for c in report.lower.intercepts]
        assert report.upper.intercepts == approx(lifted, rel=0, abs=1e-14)

    def test_custom_variable_names(self):
        text = to_lp_constraints(build_report(solve_minimax(2)), "q", "cost")
        _, constraints, _ = lp_sections(text)
        assert all("cost" in row for row in constraints)
        assert any(" q " in row or row.rstrip().endswith(" q >= 0") for row in constraints)

    @pytest.mark.parametrize("name", [
        "2q", ".x", "L>=", "a b", "x\t", "a-b", "a+b", "a:b", "a*b", "a^2",
        "a<b", "a=b", "a[1]", "", "x" * 256,
        # read as exponents: e or E alone, or followed by a digit, e or E
        "e", "E", "e1", "E8cats", "ee", "eE", "Ee9",
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

    @pytest.mark.parametrize("name", ["x_1", "a.b", "Cost", "y" * 255, "(q)", "z#",
                                      "example", "eta", "E_1", "xe1"])
    def test_accepts_valid_variable_names(self, name):
        text = to_lp_constraints(build_report(solve_minimax(4)), name, "L")
        _, constraints, rest = lp_sections(text)
        assert sum(f" {name} >= " in row for row in constraints) == 4
        assert f" {name} free" in rest


# a lower row as to_lp_constraints writes it: the slope's sign is flipped onto
# the left-hand side, a slope of 0 writes no term and one of magnitude 1 no coefficient
_LOWER_ROW = re.compile(r" lower_(\d+): L(?: ([+-]) (?:(\S+) )?x)? >= (\S+)")


def lower_rows(text: str):
    """(slopes, intercepts) read back from the lower_i rows of LP text."""
    rows = [_LOWER_ROW.fullmatch(line) for line in text.splitlines()
            if line.startswith(" lower_")]
    assert [int(m[1]) for m in rows] == list(range(len(rows)))
    slopes = tuple(0.0 if m[2] is None else float(m[3] or 1) * (1.0 if m[2] == "-" else -1.0)
                   for m in rows)
    return slopes, tuple(float(m[4]) for m in rows)


class TestNewsvendorLp:
    """The exported rows, parsed and solved as a newsvendor LP.

    At mean mu and deviation sigma with holding cost h and shortage cost p,
    the expected cost of order x is (h+p) closs(x) - p x + p mu, or
    (h+p) loss(x) + h x - h mu; its minimum, at Phi((x - mu)/sigma) =
    p/(h+p), is (h+p) sigma phi(inv_cdf(p/(h+p))).  Minimising over the
    lower rows gives at most that, and the upper bound, the rows lifted by
    max_error, at most (h+p) max_error more.
    """

    MU, SIGMA, H, P = 100.0, 20.0, 1.0, 4.0
    EXACT = 27.99619  # (h+p) sigma phi(0.8416212...)
    TOL = 1e-6  # the solver's absolute tolerance on the optimum, stated here

    @pytest.mark.parametrize("target", ["closs", "loss"])
    @pytest.mark.parametrize("n", [2, 10, 100, 1000])
    def test_lp_optimum_brackets_the_exact_cost(self, n, target):
        from scipy.optimize import linprog

        h, p, mu = self.H, self.P, self.MU
        report = BoundReport(solve_minimax(n), NormalParams(mu, self.SIGMA), target)
        slopes, intercepts = lower_rows(to_lp_constraints(report))
        assert (slopes, intercepts) == (report.lower.slopes, report.lower.intercepts)

        # variables (x, L); each row L - s x >= c is s x - L <= -c
        cost, const = ((-p, h + p), p * mu) if target == "closs" else ((h, h + p), -h * mu)
        res = linprog(cost, A_ub=[(s, -1.0) for s in slopes], b_ub=[-c for c in intercepts],
                      bounds=[(None, None)] * 2, method="highs")
        assert res.status == 0, res.message
        lp = res.fun + const
        exact = (h + p) * self.SIGMA * phi(inv_cdf(p / (h + p)))
        assert exact == approx(self.EXACT, abs=5e-6)
        assert lp - self.TOL <= exact <= lp + (h + p) * report.max_error + self.TOL
        # L is tight at the optimum: it equals the lower bound there
        assert res.x[1] == approx(report.lower(float(res.x[0])), abs=self.TOL)


def _decimal_lp_num(x: float) -> str:
    """Shortest round-trip positional form: repr, or Decimal's spelling of an
    exponent repr; a trailing .0 is dropped."""
    r = repr(x)
    if "e" in r:
        return format(Decimal(r), "f")
    return r[:-2] if r.endswith(".0") else r


class TestLpNumber:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(1e16)
    @example(-2.5e-310)
    def test_matches_the_decimal_oracle(self, x):
        assert export_io._lp_num(x) == _decimal_lp_num(x)

    @pytest.mark.parametrize("x", [
        0.0, -0.0, 1.0, -3.0, 0.1, 1e-5, 1e15, 1e16, 1e22, 1.5e300,
        5e-324, -2.5e-310, 1.7976931348623157e308, 9007199254740993.0])
    def test_edge_values(self, x):
        text = export_io._lp_num(x)
        assert text == _decimal_lp_num(x)
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
