import ast
import csv
import math
import os
import subprocess
import sys
from pathlib import Path

from losslin import partition

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> str:
    """The stdout of scripts/<name> run on this checkout's package; it must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_error_profile_smoke(tmp_path):
    run_script("error_profile.py", "--max", "4", "--points", "201", "--outdir", str(tmp_path))
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ["profile_02.csv", "profile_03.csv", "profile_04.csv",
                       "summary.csv"]
    for segments in (2, 3, 4):
        rows = (tmp_path / f"profile_{segments:02d}.csv").read_text().splitlines()
        assert rows[0] == "x,exact,lower,upper,gap_lower,gap_upper"
        assert len(rows) == 1 + 201
    with open(tmp_path / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    assert [int(r["segments"]) for r in summary] == [2, 3, 4]
    errors = [float(r["max_error"]) for r in summary]
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_fit_start_prints_the_start_constant():
    header, body = run_script("fit_start.py", "--min", "3", "--max", "40").split("\n", 1)
    assert header.startswith("# least squares over the 380 boundaries of N = 3..40: rms ")
    rms = float(header.split("rms ")[1].split(",")[0])
    assert 0.0 < rms <= 1e-4
    assert body.startswith("_START_FIT = (\n") and body.endswith("\n)\n")
    coef = ast.literal_eval(body.split("=", 1)[1])
    assert len(coef) == len(partition._START_FIT)
    assert all(isinstance(c, float) and math.isfinite(c) for c in coef)
