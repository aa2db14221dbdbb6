"""One worker process of the losslin benchmark; run.py starts it.

    worker.py WORKLOAD SEED SECONDS INDEX SPAWNED_AT [--trace SPAN_FILE]

The worker builds WORKLOAD's inputs from SEED, notes its set-up time as the
time since SPAWNED_AT (a ``time.monotonic()`` reading run.py took just before
starting it; the monotonic clock is shared by all processes of a machine), runs
timed operations for about SECONDS and prints one JSON line.  With --trace it
runs the workload's traced variant instead and appends its spans to SPAN_FILE.
"""

from __future__ import annotations

import json
import sys
import time
import traceback

import workloads
from spans import Tracer


def measure(wl, seconds: float) -> dict:
    """Closed loop, one client: the next operation starts when the last ends."""
    samples = []
    attempted, problems = wl.setup_checks, list(wl.setup_problems)
    failed, ops = len(problems), 0
    start = time.perf_counter()
    while True:
        ops += 1
        attempted += 1
        try:
            elapsed, found = wl.op()
        except Exception:  # a failed operation is counted, the run goes on
            failed += 1
            problems.append(traceback.format_exc(limit=4))
        else:
            samples.append(elapsed)
            if found:
                failed += 1
                problems += found
        # stop before an operation of average length would overrun the budget
        used = time.perf_counter() - start
        if used + used / ops > seconds:
            break
    return {"samples": samples, "attempted": attempted, "failed": failed,
            "problems": problems[:5], "extra": wl.extra()}


def main(argv: list[str]) -> int:
    workload, seed, seconds, index, spawned_at = argv[:5]
    wl = workloads.make(workload, int(seed), int(index))
    setup_s = time.monotonic() - float(spawned_at)
    if argv[5:6] == ["--trace"]:
        result = wl.trace(Tracer(argv[6]), float(seconds))
        problems = [*wl.setup_problems, *result["problems"]]
        result.update(attempted=result["attempted"] + wl.setup_checks,
                      failed=len(problems), problems=problems[:5])
    else:
        result = measure(wl, float(seconds))
    result["setup_s"] = setup_s
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
