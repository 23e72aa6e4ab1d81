#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, over several seeds.

    python3 perfbench/spread.py --workload family-report [--first-seed 1]

Runs run.py for RUNS seeds from --first-seed on, each for BENCHMARK.json's
run_seconds, and prints, per metric, the median of the run values and the
distance between their first and third quartiles as a share of that
median, next to the metric's bound from BENCHMARK.json.  The raw results are appended to
.perfbench_out/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    values: dict[str, list[float]] = {m["name"]: [] for m in declared["end_to_end"]}
    log_path = os.path.join(ROOT, ".perfbench_out", f"spread-{args.workload}.jsonl")
    for seed in range(args.first_seed, args.first_seed + RUNS):
        cmd = [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(declared["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(log_path, "a") as fh:
            fh.write(json.dumps({"seed": seed, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} " + " ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
        ), flush=True)
        for k, m in result["metrics"].items():
            values[k].append(m["value"])

    print(f"{'metric':14s} {'median':>10s} {'iqr/median':>10s} {'bound':>6s}")
    for m in declared["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{m['name']:14s} {med:10.4g} {(q3 - q1) / med:10.3f} {m['bound']:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
