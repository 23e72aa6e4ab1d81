#!/usr/bin/env python3
"""satake-st benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload moment-sweep --seed 1 --seconds 40 --trace 0

Run from the repository root.  The run repeats passes of the workload
while another one fits in --seconds (at least MIN_PASSES of them).  Each
pass is a fresh interpreter (worker.py), so the package's module-global
caches (the sample-bank cache, the lru_caches on weight tables and the
Langlands matrix) start empty: reuse within a pass is real traffic, reuse
across passes would not be.  Passes run one at a time with BLAS and OpenMP
pinned to one thread.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, medians over
the passes, with times scaled to a reference host speed (hostspeed.py);
--trace 1 alternates untraced and traced passes and reports
the per-layer metrics of the traced ones, with the tracing overhead.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Details of every pass go to .perfbench_out/ in the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# A run must end within 180 s; leave room for the pass in flight.
HARD_LIMIT_S = 160.0
MIN_PASSES = {False: 3, True: 4}
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def _load_declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
        "workloads": [w["name"] for w in spec["workloads"]],
    }


def _worker_env() -> dict:
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("SATAKE_ST_") and k != "PYTHONPATH"
    }
    env.update(PINNED_THREADS)
    return env


def _run_pass(args, index: int, traced: bool, timeout: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--scratch-dir", OUT_DIR,
    ]
    if args.small:
        cmd.append("--small")
    if traced:
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}-pass{index}.json.gz")
        cmd += ["--trace", "--spans-out", spans]
    # One fresh interpreter per pass, so module-global caches start empty.
    env = _worker_env()
    wall0 = time.monotonic()
    env["PERFBENCH_SPAWN_KERNEL_S"] = repr(hostspeed.measure())
    env["PERFBENCH_SPAWN_NS"] = str(time.monotonic_ns())
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {index} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass {index} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"pass {index} printed no result:\n{proc.stderr[-4000:]}")
    result = json.loads(lines[-1])
    result["traced"] = traced
    result["wall_s"] = time.monotonic() - wall0
    return result


def _run_passes(args) -> list[dict]:
    start = time.monotonic()
    passes: list[dict] = []
    while True:
        traced = args.trace and len(passes) % 2 == 1
        remaining = HARD_LIMIT_S - (time.monotonic() - start)
        passes.append(_run_pass(args, len(passes), traced, remaining))
        # start another pass only if it should end within the time asked for
        projected = time.monotonic() - start + max(p["wall_s"] for p in passes)
        if len(passes) >= MIN_PASSES[args.trace] and projected > args.seconds:
            break
        if projected > HARD_LIMIT_S:
            break
    if args.trace and not any(p["traced"] for p in passes):
        raise BenchError("no traced pass fitted in the time limit")
    return passes


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _summarise_pass(p: dict) -> None:
    """Per-pass percentiles, scaled and raw, and the pass's median kernel time."""
    for suffix, key in (("", "latency_s"), ("_raw", "latency_raw_s")):
        latency_ms = [1e3 * v for v in p.pop(key)]
        p[f"op_p50{suffix}_ms"] = _percentile(latency_ms, 50)
        p[f"op_p90{suffix}_ms"] = _percentile(latency_ms, 90)
    p["kernel_s"] = statistics.median(p["kernel_s"])


def _end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    """Medians over the passes of the times scaled to the reference speed
    (hostspeed.py), and of the raw times for the record."""
    raw_keys = {
        "setup_s": "setup_raw_s", "run_s": "run_raw_s",
        "op_p50_ms": "op_p50_raw_ms", "op_p90_ms": "op_p90_raw_ms",
    }
    scaled = {key: statistics.median(p[key] for p in passes) for key in raw_keys}
    scaled["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
    raw = {key: statistics.median(p[rk] for p in passes) for key, rk in raw_keys.items()}
    raw["kernel_s"] = statistics.median(p["kernel_s"] for p in passes)
    return scaled, raw


def _per_layer(passes: list[dict]) -> tuple[dict, list[str]]:
    """Medians over the traced passes; counts must agree between them."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    layers = [p["layers"] for p in traced]
    problems = []
    for key, value in layers[0].items():
        if isinstance(value, int) and any(lay[key] != value for lay in layers):
            problems.append(f"count {key} differs between passes: {[lay[key] for lay in layers]}")
    out = {
        key: value if isinstance(value, int) else statistics.median(lay[key] for lay in layers)
        for key, value in layers[0].items()
    }
    out["cli.import_s"] = statistics.median(p["cli_import_s"] for p in passes)
    out["trace.overhead_s"] = (
        statistics.median(p["run_s"] for p in traced)
        - statistics.median(p["run_s"] for p in plain)
    )
    return out, problems


def _git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="reduced sizes, for selftest.py")
    args = ap.parse_args()
    args.trace = bool(args.trace)

    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "satake_st", "__init__.py")):
            raise BenchError(f"no package source under {os.path.join(ROOT, 'src')}")
        declared = _load_declared()
        if args.workload not in declared["workloads"]:
            raise BenchError(f"unknown workload {args.workload!r}")
        os.makedirs(OUT_DIR, exist_ok=True)
        passes = _run_passes(args)
        for p in passes:
            _summarise_pass(p)
        problems = [e for p in passes for e in p["errors"]]
        raw = None
        if args.trace:
            values, count_problems = _per_layer(passes)
            problems += count_problems
        else:
            values, raw = _end_to_end(passes)
        units = declared[args.trace]
        if set(values) != set(units):
            raise BenchError(
                f"computed metrics {sorted(set(values) ^ set(units))} "
                "do not match BENCHMARK.json"
            )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "env": passes[0]["env"],
        "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
        "failed_op_ratio": failed / attempted,
        "problems": problems,
        "metrics": values,
        "raw": raw,
        "per_pass": passes,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(record, fh, indent=1)

    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    summary = {k: record[k] for k in ("workload", "seed", "git_sha", "nproc", "python", "env")}
    print("# run: " + json.dumps(summary))
    print(
        f"# passes={record['passes']} traced={record['traced_passes']} "
        f"ops={attempted} failed={failed} failed_op_ratio={record['failed_op_ratio']:.6g}"
    )
    for key, unit in units.items():
        print(f"# {key} = {values[key]:.6g} {unit}")
    if raw:
        print("# raw (unscaled): " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
