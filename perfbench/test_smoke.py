"""Smoke test of the benchmark itself.

Runs every workload of BENCHMARK.json for one second, and the traced run
once, and checks that each reports every metric BENCHMARK.json names, with
its unit, and that no operation failed.  Also checks that the benchmark
refuses to run in a directory that holds only itself.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(workload: str, trace: int) -> dict:
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in declared}
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])


# cli_cold, sweep_small and dense_verify are not gated by BENCHMARK.json
# (see README.md) but stay runnable.
UNGATED = ["cli_cold", "sweep_small", "dense_verify"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]] + UNGATED)
def test_workload_reports_every_end_to_end_metric(workload):
    result = _result(workload, 0)
    _check(result, SPEC["end_to_end"])
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    _check(_result(SPEC["workloads"][0]["name"], 1), SPEC["per_layer"])


def test_refuses_a_directory_without_the_library():
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = _run(bare, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
