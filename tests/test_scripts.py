import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_error_profile_smoke(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "error_profile.py"),
         "--max", "4", "--points", "201", "--outdir", str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
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
