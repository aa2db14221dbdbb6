"""The losslin benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the library is taken from ``src/`` of the checkout that
holds this file.  With ``--trace 0`` the run measures the workload's
end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics.
Human-readable lines go first; the last line of stdout is the JSON result
described in perfbench/README.md.  Exit status 0 means a result was printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = ROOT / "perfbench" / "worker.py"
SPAN_DIR = ROOT / "perfbench" / "out"

WORKLOADS = ("cli_cold", "sweep_small", "sweep_large", "report_batch", "dense_verify")
# The traced run profiles each layer on the workload where it does its work,
# with this share of --seconds (solve_sweep solves each size once, untimed).
TRACE_HOMES = {"cli_cold": 0.25, "solve_sweep": 0.0, "report_batch": 0.25, "dense_verify": 0.5}

# One operation of each workload, and the names the figures go by elsewhere.
OPERATION = {
    "cli_cold": ("one cold `python -m losslin.cli` call",
                 "cli_ms_p50 = op_ms_p50, cli_ms_tail = op_ms_tail"),
    "sweep_small": ("the first solves of N = 5, 11, 30 in a fresh process",
                    "sweep_small_s = op_ms_p50 / 1000"),
    "sweep_large": ("the first solves of N = 100, 300, 1000 in a fresh process",
                    "sweep_large_s = op_ms_p50 / 1000"),
    "report_batch": ("one portfolio item",
                     "item_ms_p50 = op_ms_p50, item_ms_p99 = p99, items_per_s = throughput"),
    "dense_verify": ("one dense verification pass", "dense_pass_s = op_ms_p50 / 1000"),
}

END_TO_END = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_tail": "ms"}

# Self time per operation of each layer a traced workload reaches.
SELF_LAYERS = {
    "cli_cold": ("gaussian", "loss_core", "partition", "tables", "bounds", "export_io", "cli"),
    "solve_sweep": ("gaussian", "loss_core", "partition"),
    "report_batch": ("gaussian", "loss_core", "partition", "bounds", "export_io"),
    "dense_verify": ("gaussian", "loss_core", "partition", "bounds", "export_io"),
}
SIZES = (5, 11, 30, 100, 300, 1000)
PER_LAYER = {
    "import.total_ms": "ms", "import.numpy_ms": "ms", "import.scipy_ms": "ms",
    "import.losslin_self_ms": "ms", "cli.spawn_floor_ms": "ms",
    "cli.main_ms": "ms", "tables.precomputed_partition_us": "us",
    **{f"partition.solve_ms.N{n}": "ms" for n in SIZES},
    **{f"partition.closs_std_calls.N{n}": "count" for n in SIZES},
    "partition.from_boundaries_us": "us", "partition.breakpoint_errors_us": "us",
    "gaussian.phi_ns_per_elem": "ns", "gaussian.cdf_ns_per_elem": "ns",
    "gaussian.inv_cdf_ns_per_elem": "ns", "loss_core.closs_ns_per_elem": "ns",
    "loss_core.loss_ns_per_elem": "ns", "loss_core.closs_generic_ms": "ms",
    "gaussian.phi.calls": "count", "gaussian.phi_self_ms": "ms",
    "loss_core.closs_std_self_ms": "ms", "loss_core.closs_scalar_us": "us",
    "bounds.build_report_us": "us", "bounds.build_lower_us": "us",
    "bounds.build_upper_shift_us": "us", "bounds.evaluate_us": "us", "bounds.max_gap_ms": "ms",
    "export_io.to_json_us": "us", "export_io.from_json_us": "us",
    "export_io.to_lp_constraints_us": "us", "export_io.to_csv_table_us": "us",
    "export_io.plot_data_ms": "ms", "export_io.plot_rows_per_s": "1/s",
    "export_io.bytes_out.cli_cold": "count", "export_io.bytes_out.report_batch": "count",
    "export_io.bytes_out.dense_verify": "count",
    "trace.overhead_pct.report_batch": "%", "trace.overhead_pct.dense_verify": "%",
    **{f"{home}.self_ms.{layer}": "ms" for home, layers in SELF_LAYERS.items()
       for layer in layers},
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    # one client and no threads: BLAS pools would share the two cores with it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # the CLI must solve at the default tolerance the checks assume
    env.pop("LOSSLIN_TOL", None)
    return env


def _setups(seconds: int) -> int:
    """Worker processes per run; set-up is timed once in each."""
    return min(3, max(1, int(seconds) // 2))


def _worker(workload: str, seed: int, seconds: float, index: int, env: dict,
            span_file: Path | None = None) -> dict:
    cmd = [sys.executable, str(WORKER), workload, str(seed), repr(seconds), str(index)]
    extra = [] if span_file is None else ["--trace", str(span_file)]
    try:
        proc = subprocess.run(cmd + [repr(time.monotonic())] + extra, env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=seconds + 150)
    except subprocess.TimeoutExpired:
        return {"error": f"{workload} worker {index} timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{workload} worker {index} exited with status {proc.returncode}"}
    return json.loads(lines[-1])


def _wall_ms(cmd: list[str], env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return (time.perf_counter() - t0) * 1e3


def _percentile(ms: list[float], q: int) -> float:
    return statistics.quantiles(ms, n=100, method="inclusive")[q - 1] if len(ms) > 1 else ms[0]


def _tail(ms: list[float]) -> int:
    """The highest whole percentile with at least ten samples beyond it, from
    p50 to p90.  Beyond p90, single host stalls of a shared machine decide
    the value from run to run."""
    n = len(ms)
    return min(90, max(50, math.floor(100 * (n - 10) / n))) if n > 10 else 50


def end_to_end(workload: str, seed: int, seconds: int, env: dict) -> dict:
    k = _setups(seconds)
    setup_s, samples, extra = [], [], defaultdict(list)
    attempted = failed = 0
    for index in range(k):
        res = _worker(workload, seed, seconds / k, index, env)
        if "error" in res:
            print(res["error"], file=sys.stderr)
            attempted, failed = attempted + 1, failed + 1
            continue
        setup_s.append(res["setup_s"])
        samples += res["samples"]
        attempted += res["attempted"]
        failed += res["failed"]
        for problem in res["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
        for key, values in res["extra"].items():
            extra[key] += values
    if not samples:
        raise SystemExit(f"{workload}: no operation completed")

    ms = [x * 1e3 for x in samples]
    n, q = len(ms), _tail(ms)
    metrics = {"setup_s": statistics.median(setup_s), "op_ms_p50": statistics.median(ms),
               "op_ms_tail": _percentile(ms, q)}
    what, names = OPERATION[workload]
    print(f"workload {workload} (seed {seed}, {seconds} s, {len(setup_s)} set-ups); "
          f"operation: {what}")
    print(f"  setup_s     {metrics['setup_s']:.4f} s    median of "
          + ", ".join(f"{s:.3f}" for s in setup_s))
    print(f"  op_ms_p50   {metrics['op_ms_p50']:.4f} ms   n = {n}")
    for label, pct, value in (("op_ms_tail", q, metrics["op_ms_tail"]),
                              ("p99", 99, _percentile(ms, 99))):
        beyond = sum(1 for x in ms if x > value)
        print(f"  {label:11s} {value:.4f} ms   p{pct}, {beyond} of {n} samples beyond")
    print(f"  throughput  {n / sum(samples):.4f} operations per second of timed work")
    if extra.get("spawn_floor_ms"):
        floor = extra["spawn_floor_ms"]
        print(f"  spawn floor {statistics.median(floor):.2f} ms (`python -c pass`, "
              f"median of {len(floor)} interleaved)")
    print(f"  fail_frac   {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    print(f"  ({names})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in END_TO_END.items()}}


def _import_chain(env: dict, runs: int) -> dict:
    """Medians over ``python -X importtime -c "import losslin"`` runs."""
    rows = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import losslin"],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=120)
        self_us, total_us = defaultdict(int), 0
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            name = fields[2].strip()
            self_us[name.split(".")[0]] += int(fields[0])
            if name == "losslin":
                total_us = int(fields[1])
        rows.append({"import.total_ms": total_us / 1e3,
                     "import.numpy_ms": self_us["numpy"] / 1e3,
                     "import.scipy_ms": self_us["scipy"] / 1e3,
                     "import.losslin_self_ms": self_us["losslin"] / 1e3})
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def per_layer(workload: str, seed: int, seconds: int, env: dict) -> dict:
    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{workload}-seed{seed}.jsonl"
    span_file.unlink(missing_ok=True)
    probes = _setups(seconds) + 2
    metrics = _import_chain(env, probes)
    metrics["cli.spawn_floor_ms"] = statistics.median(
        _wall_ms([sys.executable, "-c", "pass"], env) for _ in range(probes))
    attempted, failed = 2 * probes, 0
    for home, share in TRACE_HOMES.items():
        res = _worker(home, seed, seconds * share, 0, env, span_file)
        if "error" in res:
            raise SystemExit(res["error"])
        metrics.update(res["metrics"])
        attempted += res["attempted"]
        failed += res["failed"]
        for problem in res["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    print(f"per-layer metrics (seed {seed}, traced; spans in {span_file.relative_to(ROOT)})")
    for name, unit in PER_LAYER.items():
        print(f"  {name:40s} {metrics[name]:.6g} {unit}")
    print(f"  fail_frac {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in PER_LAYER.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "losslin" / "__init__.py").is_file():
        print(f"perfbench: no losslin package under {SRC}", file=sys.stderr)
        return 2

    env = _env()
    # untimed: compiles bytecode on a fresh checkout and fills the file cache
    _wall_ms([sys.executable, "-c", "import losslin"], env)
    if args.workload == "cli_cold":
        for argv_ in (["table", "--max", "3"], ["bounds", "--segments", "20", "--format", "lp"]):
            _wall_ms([sys.executable, "-m", "losslin.cli", *argv_], env)

    run = per_layer if args.trace else end_to_end
    result = run(args.workload, args.seed, args.seconds, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
