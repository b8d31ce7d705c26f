"""One benchmark pass in a fresh interpreter.

Usage (from the root of a checkout):

    python3 perfbench/worker.py --workload NAME --seed N --scratch DIR
        [--trace] [--spans FILE] [--setup-only]

The worker imports the program, notes the monotonic clock time at which
it is ready (the parent subtracts its own spawn time to get set-up
time), runs one pass and prints one JSON line with the pass's timings,
peak memory, operation counts and, when traced, per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import qnls.cli  # noqa: E402,F401 - the set-up being timed
import workloads  # noqa: E402

READY = time.monotonic()


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_pass(workload, seed: int, scratch: str, tracer=None) -> dict:
    if tracer is not None:
        tracer.install()
    cpu0, wall0 = _cpu_seconds(), time.perf_counter()
    try:
        result = workload.run(seed, scratch)
    except Exception:  # noqa: BLE001 - a raising pass fails all its operations
        result = workloads.PassResult(attempted=workload.operations,
                                      failed=workload.operations,
                                      misses=[traceback.format_exc()])
    wall = time.perf_counter() - wall0
    cpu = _cpu_seconds() - cpu0
    if tracer is not None:
        tracer.uninstall()
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "attempted": result.attempted,
        "failed": result.failed,
        "misses": result.misses,
        "digest": result.digest,
        "extra": result.extra,
        "inputs": result.inputs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    out = {"ready": READY}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        out.update(run_pass(workloads.WORKLOADS[args.workload], args.seed,
                            args.scratch, tracer))
        if tracer is not None:
            out["layers"] = tracer.layer_metrics()
            out["spans"] = len(tracer.spans)
            if args.spans:
                tracer.write_spans(args.spans,
                                   f"{args.workload}:{args.seed}")
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
