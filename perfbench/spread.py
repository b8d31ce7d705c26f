"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload NAME [--workload NAME ...]
        [--seeds 1,2,3,4,5] [--seconds 20] [--json FILE]

Runs perfbench/run.py once per workload and seed, one run at a time, and
prints for every metric its median, its quartiles and the distance
between the quartiles as a share of the median, the statistic the
benchmark's bounds in BENCHMARK.json are set against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--json")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    summary = {}
    for workload in args.workload:
        runs = []
        for seed in seeds:
            out = one_run(workload, seed, args.seconds)
            runs.append(out)
            print(f"{workload} seed {seed}: correct {out['correct']} " +
                  " ".join(f"{k} {v['value']:.4g}"
                           for k, v in out["metrics"].items()), flush=True)
        metrics = {name: spread([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        summary[workload] = {"seeds": seeds,
                             "correct": all(r["correct"] for r in runs),
                             "metrics": metrics}
        for name, row in metrics.items():
            print(f"  {workload:<14} {name:<12} median {row['median']:.4g}  "
                  f"quartiles {row['q1']:.4g}..{row['q3']:.4g}  "
                  f"spread {row['iqr_share']:.3f}", flush=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
