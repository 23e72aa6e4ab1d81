#!/usr/bin/env python3
"""Quick check of the benchmark itself: every workload at a small size.

    python3 perfbench/selftest.py

Runs run.py on each workload of BENCHMARK.json with --small, once untraced
and once traced, and asserts that the result line is well formed, that
every operation passed its check, and that exactly the metrics named in
BENCHMARK.json are emitted, with their units.  Takes about 15 seconds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(workload: str, trace: int, declared: dict) -> None:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", "1", "--seconds", "1", "--trace", str(trace), "--small",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, f"{workload}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 100, result
    want = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{workload}: metrics differ: {set(got) ^ set(want)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
        if not trace:
            assert m["value"] > 0, (name, m)
    print(f"ok  {workload:14s} trace={trace}  ops={result['attempted']}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    for workload in (w["name"] for w in declared["workloads"]):
        for trace in (0, 1):
            check(workload, trace, declared)
    return 0


if __name__ == "__main__":
    sys.exit(main())
