"""Workloads of the losslin benchmark: seeded inputs, timed operations, checks.

Each workload builds every input from the seed in its constructor, which
run.py times as set-up.  ``op()`` then runs one timed operation and returns
its wall time in seconds with the problems its output checks found.
``trace(tracer, seconds)`` runs the traced variant on the same inputs and
returns per-layer metrics.  The library is reached only through its public
API, looked up on the package at each call, so the benchmark keeps working
while the modules behind it change and the tracer sees the benchmark's calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import losslin
from losslin import GenericDistribution, NormalParams

from spans import LAYERS, durations_ns, self_ns_by

# The solver's default tolerance, which every workload solves at.
TOL = 1e-10

# Largest worst-case error of the minimax lower bound by segment count, as
# tabulated in the paper (six significant figures).
PAPER_MAX_ERROR = {
    2: 0.398942, 3: 0.120656, 4: 0.0578441, 5: 0.0339052, 6: 0.0222709,
    7: 0.0157461, 8: 0.0117218, 9: 0.00906529, 10: 0.00721992, 11: 0.00588597,
}

SWEEP_SMALL = (5, 11, 30)
SWEEP_LARGE = (100, 300, 1000)

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _rng(seed: int, workload: str, index: int = 0) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def check_partition(part, n_regions: int) -> list[str]:
    """Equal-error certificate and, for N <= 10, the paper's table."""
    problems = []
    if part.n_regions != n_regions:
        problems.append(f"N={n_regions}: got {part.n_regions} regions")
    spread = losslin.breakpoint_errors(part).spread
    if not spread <= TOL:
        problems.append(f"N={n_regions}: breakpoint-error spread {spread:.3e} > {TOL}")
    ref = PAPER_MAX_ERROR.get(n_regions + 1)
    if ref is not None and float(f"{part.max_error:.6g}") != ref:
        problems.append(f"N={n_regions}: max_error {part.max_error:.6g} != paper {ref}")
    return problems


class Workload:
    """Defaults for workloads without set-up checks or extra samples."""

    setup_problems: tuple = ()
    setup_checks = 0

    def extra(self) -> dict:
        return {}


def _self_ms_per_op(spans, ranges, prefix: str) -> dict:
    """Self time per layer, summed over the span ranges of the timed operations."""
    total = dict.fromkeys(LAYERS, 0)
    for lo, hi in ranges:
        for layer, ns in self_ns_by(spans, 1, lo, hi).items():
            total[layer] += ns
    n = max(len(ranges), 1)
    return {f"{prefix}.self_ms.{layer}": ns / n / 1e6 for layer, ns in total.items()}


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

def _cli_mix(seed: int, size: int = 24) -> list[list[str]]:
    """Interleaved argv mix: bounds in json/lp/csv over 2..31 segments, table, eval."""
    rng = _rng(seed, "cli_cold")
    mix = []
    for _ in range(size):
        kind = rng.random()
        common = ["--mu", repr(round(rng.uniform(-50.0, 50.0), 3)),
                  "--sigma", repr(round(_log_uniform(rng, 0.1, 10.0), 4)),
                  "--target", rng.choice(("closs", "loss"))]
        if kind < 0.75:
            mix.append(["bounds", "--segments", str(rng.randint(2, 31)),
                        "--format", rng.choice(("json", "lp", "csv")), *common])
        elif kind < 0.875:
            mix.append(["table", "--max", "11"])
        else:
            mix.append(["eval", "--x", repr(round(rng.uniform(-60.0, 60.0), 3)), *common])
    return mix


def _library_output(argv: list[str], partitions: dict) -> str:
    """What the CLI should print for argv, produced by the library in-process."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] == "table":
        return losslin.to_csv_table(losslin.parameter_table(int(opts["--max"])))
    scale = NormalParams(float(opts["--mu"]), float(opts["--sigma"]))
    target = opts["--target"]
    if argv[0] == "eval":
        fn = losslin.closs if target == "closs" else losslin.loss
        return f"{fn(float(opts['--x']), scale):.12f}\n"
    segments = int(opts["--segments"])
    if segments not in partitions:
        partitions[segments] = losslin.solve_minimax(segments - 1)
    part = partitions[segments]
    if opts["--format"] == "csv":
        return losslin.to_csv_table([part])
    report = losslin.build_report(part, scale, target)
    if opts["--format"] == "json":
        return losslin.to_json(report)
    return losslin.to_lp_constraints(report)


class CliCold(Workload):
    """Cold ``python -m losslin.cli`` processes, one after another."""

    FLOOR_EVERY = 4
    TRACED_PASSES = 4

    def __init__(self, seed: int, index: int):
        partitions: dict = {}
        self.mix = [(argv, _library_output(argv, partitions).encode())
                    for argv in _cli_mix(seed)]
        self.setup_problems = [p for s, part in partitions.items()
                               for p in check_partition(part, s - 1)]
        self.setup_checks = len(partitions)
        self.next = index * 7
        self.floor_ms: list[float] = []

    def op(self):
        argv, expected = self.mix[self.next % len(self.mix)]
        self.next += 1
        if self.next % self.FLOOR_EVERY == 0:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
            self.floor_ms.append((time.perf_counter() - t0) * 1e3)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "losslin.cli", *argv],
                              capture_output=True, timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            return elapsed, [f"{' '.join(argv)}: exit {proc.returncode}: "
                             f"{proc.stderr.decode(errors='replace')[-300:]}"]
        if proc.stdout != expected:
            return elapsed, [f"{' '.join(argv)}: stdout differs from the library's export"]
        return elapsed, []

    def extra(self) -> dict:
        return {"spawn_floor_ms": self.floor_ms}

    def trace(self, tracer, seconds: float) -> dict:
        """In-process ``cli.main`` over the same argv mix, stdout captured."""
        import losslin.cli

        tracer.install()
        lo = tracer.mark()
        ranges, problems, bytes_out = [], [], None
        deadline = time.perf_counter() + seconds
        for _ in range(self.TRACED_PASSES):
            written = 0
            for argv, expected in self.mix:
                buf = io.StringIO()
                start = tracer.mark()
                with contextlib.redirect_stdout(buf):
                    rc = losslin.cli.main(list(argv))
                ranges.append((start, tracer.mark()))
                out = buf.getvalue().encode()
                written += len(out)
                if rc != 0 or out != expected:
                    problems.append(f"in-process {' '.join(argv)}: output differs")
            if bytes_out is None:
                bytes_out = written
            if time.perf_counter() > deadline:
                break
        tracer.uninstall()
        tracer.dump("cli_cold", lo)
        spans = tracer.spans

        def mean_us(name):
            # a mean, because calls come in two sizes (N <= 10 or not, one
            # partition or ten) and the median would pick one by the mix
            durs = durations_ns(spans, name, lo=lo)
            return sum(durs) / len(durs) / 1e3 if durs else 0.0

        metrics = {
            "cli.main_ms": _median(durations_ns(spans, "cli.main", lo=lo)) / 1e6,
            "tables.precomputed_partition_us": mean_us("tables.precomputed_partition"),
            "export_io.to_csv_table_us": mean_us("export_io.to_csv_table"),
            "export_io.bytes_out.cli_cold": bytes_out,
        }
        metrics.update(_self_ms_per_op(spans, ranges, "cli_cold"))
        return {"metrics": metrics, "problems": problems, "attempted": len(ranges)}


# ---------------------------------------------------------------------------
# sweep_small / sweep_large
# ---------------------------------------------------------------------------

def _in_fresh_process(fn):
    """Run fn() in a forked child and return its JSON-able result.

    A forked child starts with the parent's imports done but has never
    solved the swept sizes, so a cache inside the library cannot serve a
    solve from an earlier round.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            payload = json.dumps(fn())
        # the child reports any exception and exits here: it must never
        # unwind into the parent's code
        except BaseException as exc:
            payload = json.dumps({"error": f"{type(exc).__name__}: {exc}"})
        data = payload.encode()
        while data:
            data = data[os.write(write_fd, data):]
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        raw = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not raw:
        return {"error": f"child exited with status {status}"}
    return json.loads(raw)


class Sweep(Workload):
    """First solve of each size in a fresh process, imports already warm."""

    # N=4 is outside both sweeps: it warms the solver's code paths without
    # solving any swept size in the parent.
    WARMUP_REGIONS = 4

    def __init__(self, seed: int, index: int, sizes: tuple[int, ...], name: str):
        self.sizes = sizes
        self.rng = _rng(seed, name, index)
        warm = losslin.solve_minimax(self.WARMUP_REGIONS)
        self.setup_problems = check_partition(warm, self.WARMUP_REGIONS)
        self.setup_checks = 1

    def op(self):
        order = self.rng.sample(self.sizes, len(self.sizes))

        def round_():
            # the child's own copy-on-write faults land here, untimed
            losslin.solve_minimax(self.WARMUP_REGIONS)
            elapsed, problems = 0.0, []
            for n in order:
                t0 = time.perf_counter()
                part = losslin.solve_minimax(n)
                elapsed += time.perf_counter() - t0
                problems += check_partition(part, n)
            return {"seconds": elapsed, "problems": problems}

        result = _in_fresh_process(round_)
        if "error" in result:
            raise RuntimeError(result["error"])
        return result["seconds"], result["problems"]

    def trace(self, tracer, seconds: float) -> dict:
        """Each of the six sizes solved once, traced, in its own fresh process."""
        tracer.install()
        metrics, problems = {}, []
        phi_calls, phi_self, closs_self = 0, 0.0, 0.0
        for n in SWEEP_SMALL + SWEEP_LARGE:
            def solve_traced(n=n):
                lo = tracer.mark()
                part = losslin.solve_minimax(n)
                tracer.uninstall()
                tracer.dump(f"solve_sweep.N{n}", lo)
                spans = tracer.spans
                by_name = self_ns_by(spans, 0, lo)
                return {
                    "solve_ms": durations_ns(spans, "partition.solve_minimax", "losslin",
                                             lo)[0] / 1e6,
                    "closs_std_calls": len(durations_ns(spans, "loss_core.closs_std",
                                                        site="partition", lo=lo)),
                    "phi_calls": len(durations_ns(spans, "gaussian.phi", lo=lo)),
                    "phi_self_ms": by_name.get("gaussian.phi", 0) / 1e6,
                    "closs_std_self_ms": by_name.get("loss_core.closs_std", 0) / 1e6,
                    "self": {k: v / 1e6 for k, v in self_ns_by(spans, 1, lo).items()},
                    "problems": check_partition(part, n),
                }

            result = _in_fresh_process(solve_traced)
            if "error" in result:
                raise RuntimeError(result["error"])
            metrics[f"partition.solve_ms.N{n}"] = result["solve_ms"]
            metrics[f"partition.closs_std_calls.N{n}"] = result["closs_std_calls"]
            phi_calls += result["phi_calls"]
            phi_self += result["phi_self_ms"]
            closs_self += result["closs_std_self_ms"]
            problems += result["problems"]
            for layer in LAYERS:
                key = f"solve_sweep.self_ms.{layer}"
                metrics[key] = metrics.get(key, 0.0) + result["self"].get(layer, 0.0)
        tracer.uninstall()
        metrics["gaussian.phi.calls"] = phi_calls
        metrics["gaussian.phi_self_ms"] = phi_self
        metrics["loss_core.closs_std_self_ms"] = closs_self
        return {"metrics": metrics, "problems": problems, "attempted": 6}


# ---------------------------------------------------------------------------
# report_batch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Item:
    segments: int
    scale: NormalParams
    target: str
    points: tuple[float, ...]


def _portfolio(seed: int, size: int = 2000) -> list[Item]:
    rng = _rng(seed, "report_batch")
    items = []
    for _ in range(size):
        # skewed towards few segments, as coefficient tables mostly are
        segments = 2 + int(30 * rng.random() ** 2)
        mu = rng.choice((-1.0, 1.0)) * _log_uniform(rng, 1e-2, 1e2)
        sigma = _log_uniform(rng, 1e-2, 1e2)
        points = tuple(mu + sigma * rng.gauss(0.0, 1.5) for _ in range(4))
        items.append(Item(segments, NormalParams(mu, sigma),
                          rng.choice(("closs", "loss")), points))
    return items


class ReportBatch(Workload):
    """Per-item bound report, JSON write and read, LP export and scalar evaluation."""

    TRACED_ITEMS = 600

    def __init__(self, seed: int, index: int):
        self.items = _portfolio(seed)
        self.partitions = {s: losslin.solve_minimax(s - 1)
                           for s in sorted({it.segments for it in self.items})}
        self.setup_problems = [p for s, part in self.partitions.items()
                               for p in check_partition(part, s - 1)]
        self.setup_checks = len(self.partitions)
        self.next = (index * 500) % len(self.items)

    def _item(self, it: Item):
        report = losslin.build_report(self.partitions[it.segments], it.scale, it.target)
        text = losslin.to_json(report)
        bundle = losslin.from_json(text)
        lp = losslin.to_lp_constraints(report)
        values = [(losslin.evaluate(report.lower, x), losslin.evaluate(report.upper, x))
                  for x in it.points]
        return report, text, bundle, lp, values

    @staticmethod
    def _check(it: Item, report, text, bundle, lp, values) -> list[str]:
        problems = []
        if bundle.to_text() != text:
            problems.append("from_json(t).to_text() != t")
        rows = sum(1 for line in lp.splitlines() if line.startswith(" lower_"))
        if rows != report.lower.n_segments or not lp.endswith("End\n"):
            problems.append("LP text does not hold one row per lower segment")
        exact_fn = losslin.closs if it.target == "closs" else losslin.loss
        slack = 1e-9 * it.scale.sigma
        for x, (lower, upper) in zip(it.points, values):
            exact = exact_fn(x, it.scale)
            if not lower - slack <= exact <= upper + slack:
                problems.append(f"sandwich fails at x={x!r}: {lower!r} {exact!r} {upper!r}")
        return problems

    def op(self):
        it = self.items[self.next]
        self.next = (self.next + 1) % len(self.items)
        t0 = time.perf_counter()
        out = self._item(it)
        elapsed = time.perf_counter() - t0
        return elapsed, self._check(it, *out)

    def trace(self, tracer, seconds: float) -> dict:
        """Set-up solves traced, then alternating untraced and traced chunks."""
        tracer.install()
        lo = tracer.mark()
        for s in self.partitions:
            losslin.solve_minimax(s - 1)
        from_boundaries = durations_ns(tracer.spans, "partition.Partition.from_boundaries", lo=lo)
        tracer.uninstall()

        chunk, problems, ranges, check_ranges = 50, [], [], []
        plain_s = traced_s = 0.0
        bytes_out = None
        deadline = time.perf_counter() + seconds
        for start in range(0, self.TRACED_ITEMS, chunk):
            batch = self.items[start:start + chunk]
            for it in batch:
                t0 = time.perf_counter()
                out = self._item(it)
                plain_s += time.perf_counter() - t0
                problems += self._check(it, *out)
            tracer.install()
            written = 0
            for it in batch:
                a = tracer.mark()
                t0 = time.perf_counter()
                out = self._item(it)
                traced_s += time.perf_counter() - t0
                b = tracer.mark()
                problems += self._check(it, *out)
                ranges.append((a, b))
                check_ranges.append((b, tracer.mark()))
                written += len(out[1]) + len(out[3])
            tracer.uninstall()
            if bytes_out is None:
                bytes_out = written
            if time.perf_counter() > deadline:
                break
        tracer.dump("report_batch")
        spans = tracer.spans

        def per_call_us(name, site=None, within=ranges):
            return _median([d for a, b in within
                            for d in durations_ns(spans, name, site, a, b)]) / 1e3

        metrics = {
            "partition.from_boundaries_us": _median(from_boundaries) / 1e3,
            "partition.breakpoint_errors_us": per_call_us("partition.breakpoint_errors"),
            "bounds.build_report_us": per_call_us("bounds.build_report"),
            "bounds.build_lower_us": per_call_us("bounds.build_lower"),
            "bounds.build_upper_shift_us": per_call_us("bounds.build_upper_shift"),
            "bounds.evaluate_us": per_call_us("bounds.evaluate", site="losslin"),
            "export_io.to_json_us": per_call_us("export_io.to_json"),
            "export_io.from_json_us": per_call_us("export_io.from_json"),
            "export_io.to_lp_constraints_us": per_call_us("export_io.to_lp_constraints"),
            "loss_core.closs_scalar_us": per_call_us("loss_core.closs", site="losslin",
                                                     within=check_ranges),
            "export_io.bytes_out.report_batch": bytes_out,
            "trace.overhead_pct.report_batch": (traced_s / plain_s - 1.0) * 100.0,
        }
        metrics.update(_self_ms_per_op(spans, ranges, "report_batch"))
        return {"metrics": metrics, "problems": problems, "attempted": 2 * len(ranges)}


# ---------------------------------------------------------------------------
# dense_verify
# ---------------------------------------------------------------------------

class DenseVerify(Workload):
    """max_gap and plot_data on 1e5-point grids, kernels on 1e6-element arrays."""

    GRID = 100_000
    ARRAY = 1_000_000
    SAMPLE = 2_000
    TRACED_PAIRS = 5

    def __init__(self, seed: int, index: int):
        rng = _rng(seed, "dense_verify")
        self.cases = []
        for _ in range(3):
            segments = rng.randint(2, 31)
            scale = NormalParams(rng.uniform(-5.0, 5.0), _log_uniform(rng, 0.1, 10.0))
            self.cases.append((losslin.solve_minimax(segments - 1), scale,
                               rng.choice(("closs", "loss"))))
        self.setup_problems = [p for part, _, _ in self.cases
                               for p in check_partition(part, part.n_regions)]
        self.setup_checks = len(self.cases)
        gen = np.random.default_rng(rng.getrandbits(63))
        self.z = 3.0 * gen.standard_normal(self.ARRAY)
        self.p = gen.random(self.ARRAY) * (1.0 - 2e-12) + 1e-12
        self.scale = self.cases[0][1]
        self.x = self.scale.mu + self.scale.sigma * self.z
        self.sample = gen.choice(self.ARRAY, self.SAMPLE, replace=False)
        mu, sigma = self.scale.mu, self.scale.sigma
        self.dist = GenericDistribution(cdf=lambda v: losslin.cdf((v - mu) / sigma), mean=mu)
        self.generic_x = tuple(mu + sigma * rng.uniform(-2.0, 2.0) for _ in range(3))
        self.passes = index

    def _pass(self):
        part, scale, target = self.cases[self.passes % len(self.cases)]
        self.passes += 1
        gaps = []
        for case in self.cases:
            report = losslin.build_report(*case)
            gaps.append((case, losslin.max_gap(report.lower, self.GRID),
                         losslin.max_gap(report.upper, self.GRID)))
        plot = losslin.plot_data(losslin.build_report(part, scale, target), self.GRID)
        arrays = (losslin.phi(self.z), losslin.cdf(self.z), losslin.inv_cdf(self.p),
                  losslin.closs(self.x, self.scale), losslin.loss(self.x, self.scale))
        generic = [losslin.closs_generic(x, self.dist, tol=1e-9 * self.scale.sigma)
                   for x in self.generic_x]
        return gaps, plot, (part, scale, target), arrays, generic

    def _check(self, gaps, plot, plotted, arrays, generic) -> list[str]:
        problems = []
        for (part, scale, _), (g_lo, _), (g_up, _) in gaps:
            want = scale.sigma * part.max_error
            for kind, g in (("lower", g_lo), ("upper", g_up)):
                if not abs(g - want) <= 1e-9 * scale.sigma:
                    problems.append(f"max_gap({kind}) {g!r} != sigma*max_error {want!r}")
        problems += self._check_plot(plot, plotted[1].sigma)
        problems += self._check_arrays(*arrays)
        for x, g in zip(self.generic_x, generic):
            if not abs(g - losslin.closs(x, self.scale)) <= 1e-8 * self.scale.sigma:
                problems.append(f"closs_generic({x!r}) {g!r} disagrees with closs")
        return problems

    def _check_plot(self, plot: str, sigma: float) -> list[str]:
        lines = plot.split("\n")
        if lines[0] != "x,exact,lower,upper,gap_lower,gap_upper" or len(lines) != self.GRID + 2:
            return ["plot_data has the wrong header or row count"]
        slack = 1e-9 * sigma
        for line in lines[1:-1:997]:
            x, exact, lower, upper, gap_lower, gap_upper = map(float, line.split(","))
            if not (lower - slack <= exact <= upper + slack
                    and gap_lower >= -slack and gap_upper >= -slack):
                return [f"plot_data row breaks the sandwich: {line}"]
        return []

    def _check_arrays(self, ph, cd, iq, cl, ls) -> list[str]:
        problems = []
        mu, sigma = self.scale.mu, self.scale.sigma
        for i in self.sample:
            z, p, x = float(self.z[i]), float(self.p[i]), float(self.x[i])
            phi_ref = _INV_SQRT_2PI * math.exp(-0.5 * z * z)
            cdf_ref = 0.5 * math.erfc(-z / _SQRT2)
            t = (x - mu) / sigma
            closs_ref = sigma * (_INV_SQRT_2PI * math.exp(-0.5 * t * t)
                                 + t * 0.5 * math.erfc(-t / _SQRT2))
            tol = 1e-12 * sigma * (1.0 + abs(t))
            if not (abs(ph[i] - phi_ref) <= 1e-15 and abs(cd[i] - cdf_ref) <= 1e-14
                    and abs(0.5 * math.erfc(-float(iq[i]) / _SQRT2) - p) <= 1e-12
                    and abs(cl[i] - closs_ref) <= tol
                    and abs(ls[i] - (cl[i] - (x - mu))) <= tol):
                problems.append(f"array kernels disagree with the reference at index {i}")
                break
        return problems

    def op(self):
        t0 = time.perf_counter()
        out = self._pass()
        elapsed = time.perf_counter() - t0
        return elapsed, self._check(*out)

    def trace(self, tracer, seconds: float) -> dict:
        """Alternating untraced and traced passes; metrics from the traced ones."""
        self._pass()  # untimed, so that neither side pays for first touches
        plain, traced, ranges, problems = [], [], [], []
        bytes_out = None
        deadline = time.perf_counter() + seconds
        while len(ranges) < self.TRACED_PAIRS and (not ranges or time.perf_counter() < deadline):
            elapsed, found = self.op()
            plain.append(elapsed)
            problems += found
            tracer.install()
            a = tracer.mark()
            t0 = time.perf_counter()
            out = self._pass()
            traced.append(time.perf_counter() - t0)
            ranges.append((a, tracer.mark()))
            tracer.uninstall()
            problems += self._check(*out)
            if bytes_out is None:
                bytes_out = len(out[1])
        tracer.dump("dense_verify")
        spans = tracer.spans

        def per_call(name, top=False):
            return _median([d for a, b in ranges
                            for d in durations_ns(spans, name, None, a, b, top)])

        def per_elem(name):
            # the benchmark's own 1e6-element call, not the oracle's scalar ones
            return per_call(name, top=True) / self.ARRAY

        plot_ns = per_call("export_io.plot_data")
        metrics = {
            "gaussian.phi_ns_per_elem": per_elem("gaussian.phi"),
            "gaussian.cdf_ns_per_elem": per_elem("gaussian.cdf"),
            "gaussian.inv_cdf_ns_per_elem": per_elem("gaussian.inv_cdf"),
            "loss_core.closs_ns_per_elem": per_elem("loss_core.closs"),
            "loss_core.loss_ns_per_elem": per_elem("loss_core.loss"),
            "loss_core.closs_generic_ms": per_call("loss_core.closs_generic") / 1e6,
            "bounds.max_gap_ms": per_call("bounds.max_gap") / 1e6,
            "export_io.plot_data_ms": plot_ns / 1e6,
            "export_io.plot_rows_per_s": self.GRID / (plot_ns / 1e9) if plot_ns else 0.0,
            "export_io.bytes_out.dense_verify": bytes_out,
            "trace.overhead_pct.dense_verify":
                (statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0,
        }
        metrics.update(_self_ms_per_op(spans, ranges, "dense_verify"))
        return {"metrics": metrics, "problems": problems, "attempted": 2 * len(ranges)}


def make(workload: str, seed: int, index: int):
    if workload == "cli_cold":
        return CliCold(seed, index)
    if workload in ("sweep_small", "solve_sweep"):
        return Sweep(seed, index, SWEEP_SMALL, workload)
    if workload == "sweep_large":
        return Sweep(seed, index, SWEEP_LARGE, workload)
    if workload == "report_batch":
        return ReportBatch(seed, index)
    if workload == "dense_verify":
        return DenseVerify(seed, index)
    raise ValueError(f"unknown workload {workload!r}")
