"""One pass of one workload, in a fresh interpreter.

Started by run.py; not meant to be run by hand.  The package is imported
first thing, so that the set-up time covers exactly interpreter start-up
and ``import satake_st, satake_st.cli``.  The last line of stdout is the
pass result as JSON.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import satake_st  # noqa: E402

_PKG_DONE_NS = time.monotonic_ns()
import satake_st.cli  # noqa: E402

_CLI_DONE_NS = time.monotonic_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, OpLog  # noqa: E402


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--scratch-dir", required=True)
    ap.add_argument("--spans-out", default="")
    args = ap.parse_args()

    pkg_file = os.path.realpath(satake_st.__file__)
    if not pkg_file.startswith(os.path.realpath(SRC) + os.sep):
        print(f"satake_st was imported from {pkg_file}, not from {SRC}", file=sys.stderr)
        return 2
    spawn_ns = int(os.environ["PERFBENCH_SPAWN_NS"])
    # Set-up is scaled by the kernel time just before the spawn (in run.py)
    # and just after the imports.
    setup_kernel_s = (float(os.environ["PERFBENCH_SPAWN_KERNEL_S"]) + hostspeed.measure()) / 2
    setup_raw_s = (_CLI_DONE_NS - spawn_ns) / 1e9

    make_inputs, run = WORKLOADS[args.workload]
    inputs = make_inputs(args.seed, args.small)
    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        tracer.install(satake_st)
    speed = hostspeed.SpeedLog()
    log = OpLog(tracer, speed)
    run(satake_st, inputs, log, args.scratch_dir)
    speed.checkpoint()
    run_raw_s, run_s = speed.totals()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": setup_raw_s * hostspeed.REFERENCE_S / setup_kernel_s,
        "setup_raw_s": setup_raw_s,
        "cli_import_s": (_CLI_DONE_NS - _PKG_DONE_NS) / 1e9,
        "run_s": run_s,
        "run_raw_s": run_raw_s,
        "latency_s": log.scaled_latency_s(),
        "latency_raw_s": log.latency_s,
        "kernel_s": speed.kernel_times(),
        "checkpoint_s": speed.checkpoint_s(),
        "attempted": len(log.latency_s),
        "failed": log.failed,
        "errors": log.errors,
        "peak_rss_mb": peak_rss_mb,
        "env": _environment(),
    }
    if args.trace:
        tracer.restore()
        result["layers"] = tracer.layer_metrics()
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
