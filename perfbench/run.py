"""Benchmark of the qnls verification toolkit, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Workloads (closed loop, one process, one pass at a time):

    suite-exact    qnls run all --mode exact, report.json read back
    suite-float    qnls run all --mode float
    exact-ladder   exact charge identities at N = 4, 5, 6 and exact
                   series log/exp round trips at orders 24, 48, 72
    lattice-sweep  sector engine past 64 sites, dense engine at 4^4, 4^5

Every pass runs in a fresh interpreter, so passes cannot share heap or
caches; passes continue while the next one fits in --seconds (at least
two, so the outputs of two passes of one seed can be compared; three
for every workload but suite-exact).

--trace 0 reports the end-to-end metrics: median pass wall and CPU time,
median set-up time of a fresh interpreter, median peak RSS.  --trace 1
alternates untraced and traced passes and reports per-layer self times
and counters from the traced passes, plus the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracer import LAYER_UNITS, SITE_TOTALS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

WORKLOAD_NAMES = ("suite-exact", "suite-float", "exact-ladder", "lattice-sweep")
DEFAULT_SEED = 2024
MIN_PASSES = 2
# the median of three passes is not moved by one pass that a burst of
# load from other tenants slowed; a suite-exact pass takes 10-16 s, too
# long for three in the time limit of all runs
MIN_PASSES_OF = {"suite-float": 3, "exact-ladder": 3, "lattice-sweep": 3}
SETUP_PROBES = 3           # set-up-only interpreters started before the passes
RUN_LIMIT_S = 120.0        # no new pass starts once a run is this old
KILL_AFTER_S = 165.0       # a worker still running at this run age is killed

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LADDER_METRICS = ([f"ladder.n{n}_state_s" for n in (4, 5, 6)]
                  + [f"ladder.order{k}_s" for k in (24, 48, 72)])
TRACE_METRICS = {"trace.wall_s": "s", "trace.untraced_wall_s": "s",
                 "trace.overhead_s": "s", "trace.remainder_s": "s",
                 "trace.spans": "count"}


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric a traced run reports."""
    units = dict(LAYER_UNITS)
    units.update({name: "s" for name in LADDER_METRICS})
    units.update(TRACE_METRICS)
    return units


# ----------------------------------------------------------------------
# Machine facts
# ----------------------------------------------------------------------

def blas_threads() -> str:
    """OpenBLAS thread count as numpy will use it, read from the loaded
    library; falls back to the environment setting."""
    try:
        import numpy  # noqa: F401 - loads the BLAS library
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and line.rstrip().endswith(".so")})
        for path in libs:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return str(fn())
    except (OSError, ImportError):
        pass
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def machine_facts() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "blas_threads": blas_threads(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


# ----------------------------------------------------------------------
# Workers
# ----------------------------------------------------------------------

class Failure(Exception):
    """A worker that ended without a result."""


def spawn(workload: str, seed: int, scratch: str, timeout: float, *,
          trace=False, setup_only=False, spans=None) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--scratch", scratch]
    if trace:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", spans]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise Failure(f"worker killed after {timeout:.0f} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise Failure(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready"] - start
    return out


class Run:
    """The passes of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, seconds: float, scratch: str):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.scratch = scratch
        self.started = time.monotonic()
        self.setups: list = []
        self.attempted = 0
        self.failed = 0
        self.misses: list = []
        self.digests: list = []
        self.spans_paths: list = []
        self.per_pass = 1
        self.inputs = ""

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def one(self, trace=False) -> dict | None:
        spans = None
        if trace:
            spans = os.path.join(
                OUT_DIR, f"spans-{self.workload}-seed{self.seed}"
                f"-pass{len(self.spans_paths)}.json.gz")
            self.spans_paths.append(spans)
        try:
            out = spawn(self.workload, self.seed, self.scratch,
                        KILL_AFTER_S - self.elapsed(), trace=trace, spans=spans)
        except Failure as err:
            # a pass without a result fails as many operations as the
            # last pass attempted (one if none has finished)
            self.attempted += self.per_pass
            self.failed += self.per_pass
            self.misses.append(str(err))
            return None
        self.setups.append(out["setup_s"])
        self.per_pass = out["attempted"]
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        self.misses += out["misses"]
        if self.digests and out["digest"] != self.digests[0]:
            # outputs of one seed must repeat exactly across passes
            self.failed += 1
            self.misses.append(f"pass {len(self.digests)} digest "
                               f"{out['digest'][:16]} differs from pass 0")
        self.digests.append(out["digest"])
        self.inputs = out["inputs"]
        return out

    def keep_going(self, count: int, durations: list,
                   min_passes: int = MIN_PASSES) -> bool:
        if count < min_passes:
            return self.elapsed() < RUN_LIMIT_S
        estimate = statistics.median(durations) if durations else 0.0
        return self.elapsed() + estimate <= min(self.seconds, RUN_LIMIT_S)

    def probe_setups(self):
        """Start interpreters that only load the program.  Run before
        the passes, they also take the first-load slowness of an idle
        machine off the first timed pass."""
        for _ in range(SETUP_PROBES):
            try:
                out = spawn(self.workload, self.seed, self.scratch,
                            KILL_AFTER_S - self.elapsed(), setup_only=True)
            except Failure as err:
                self.misses.append(str(err))
                self.failed += 1
                self.attempted += 1
                return
            self.setups.append(out["setup_s"])


def measure(run: Run) -> tuple:
    """Untraced passes: end-to-end metrics with their sample counts."""
    passes, elapsed = [], []
    run.probe_setups()
    min_passes = MIN_PASSES_OF.get(run.workload, MIN_PASSES)
    while run.keep_going(len(passes), elapsed, min_passes):
        start = time.monotonic()
        out = run.one()
        elapsed.append(time.monotonic() - start)
        if out is not None:
            passes.append(out)
    if not passes:
        return {}, {}
    series = {
        "wall_s": [p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "setup_s": run.setups,
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    metrics = {name: statistics.median(values) for name, values in series.items()}
    extras = {}
    for key in passes[0]["extra"]:
        extras[key] = statistics.median(p["extra"][key] for p in passes)
    return metrics, {"series": series, "extras": extras}


def measure_traced(run: Run) -> tuple:
    """Alternate untraced and traced passes; per-layer metrics are medians
    over the traced passes, ladder scaling over the untraced ones."""
    plain, traced, elapsed = [], [], []
    run.probe_setups()
    while run.keep_going(len(traced), elapsed, min_passes=1):
        start = time.monotonic()
        a = run.one()
        b = run.one(trace=True)
        elapsed.append(time.monotonic() - start)
        if a is not None and b is not None:
            plain.append(a)
            traced.append(b)
    if not traced:
        return {}, {}
    units = per_layer_units()
    metrics = {}
    for name in units:
        if name in traced[0]["layers"]:
            metrics[name] = statistics.median(p["layers"][name] for p in traced)
    for name in LADDER_METRICS:
        metrics[name] = statistics.median(
            p["extra"].get(name, 0.0) for p in plain)
    if "report.json_bytes" in traced[0]["extra"]:
        metrics["report.json_bytes"] = traced[0]["extra"]["report.json_bytes"]
    wall_t = statistics.median(p["wall_s"] for p in traced)
    wall_u = statistics.median(p["wall_s"] for p in plain)
    # self times partition the traced time; lattice.m<M>_s are totals
    remainder = statistics.median(
        p["wall_s"] - sum(v for k, v in p["layers"].items()
                          if units.get(k) == "s" and k not in SITE_TOTALS)
        for p in traced)
    metrics.update({
        "trace.wall_s": wall_t,
        "trace.untraced_wall_s": wall_u,
        "trace.overhead_s": wall_t - wall_u,
        "trace.remainder_s": remainder,
        "trace.spans": statistics.median(p["spans"] for p in traced),
    })
    return metrics, {"pairs": len(traced), "spans_files": run.spans_paths}


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(run: Run, trace: bool, metrics: dict, info: dict, units: dict):
    facts = machine_facts()
    print(f"workload {run.workload}  seed {run.seed}  trace {int(trace)}  "
          f"elapsed {run.elapsed():.1f} s")
    print("machine " + "  ".join(f"{k} {v}" for k, v in facts.items()))
    print(f"inputs {run.inputs}")
    if not trace:
        series = info.get("series", {})
        for name, unit in END_TO_END.items():
            values = series.get(name, [])
            if not values:
                continue
            print(f"  {name:<12} {_fmt(metrics[name]):>12} {unit:<6} median of "
                  f"{len(values)}: " + " ".join(f"{v:.4g}" for v in values))
        for name, value in sorted(info.get("extras", {}).items()):
            print(f"  {name:<22} {_fmt(value):>12}  median of "
                  f"{len(series.get('wall_s', []))} passes")
    else:
        print(f"  {info.get('pairs', 0)} untraced/traced pass pairs; spans in "
              + ", ".join(os.path.relpath(p, ROOT)
                          for p in info.get("spans_files", [])))
        for name in sorted(metrics):
            print(f"  {name:<32} {_fmt(metrics[name]):>14} {units[name]}")
    fail_frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'fail_frac':<12} {fail_frac:>12.6g} ratio  "
          f"{run.failed} failed of {run.attempted} operations")
    if run.digests:
        same = all(d == run.digests[0] for d in run.digests)
        print(f"  output sha256 {run.digests[0]} "
              f"({'identical' if same else 'DIFFERENT'} across "
              f"{len(run.digests)} passes)")
    for miss in run.misses[:20]:
        print(f"  MISS {miss}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="qnls benchmark: end-to-end and per-layer metrics")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qnls", "cli.py")):
        print(f"error: no qnls sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=OUT_DIR)
    try:
        run = Run(args.workload, args.seed, args.seconds, scratch)
        if args.trace:
            metrics, info = measure_traced(run)
            units = per_layer_units()
        else:
            metrics, info = measure(run)
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not metrics:
        report(run, bool(args.trace), {}, {}, units)
        print("error: no pass completed", file=sys.stderr)
        return 1
    report(run, bool(args.trace), metrics, info, units)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
