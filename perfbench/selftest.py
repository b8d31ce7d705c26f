"""Self-test of the benchmark.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Checks that
  * BENCHMARK.json names exactly the metrics run.py reports, with the
    same units;
  * a run with --trace 0 and one with --trace 1 print every named metric
    with its unit, and the human-readable lines give each end-to-end
    metric with its sample count and the fail_frac line;
  * an expected verdict made wrong on purpose inside the suite checker
    makes the pass's failure fraction nonzero, while the true
    expectation gives zero.
Exits 1 if any check fails.  Takes about a minute on two cores.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

FAILURES: list = []


def check(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def declared() -> tuple:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    return doc, end_to_end, per_layer


def check_declarations():
    doc, end_to_end, per_layer = declared()
    check(end_to_end == run.END_TO_END,
          "BENCHMARK.json end_to_end matches run.END_TO_END")
    check(per_layer == run.per_layer_units(),
          "BENCHMARK.json per_layer matches the traced metrics")
    gated = [w["name"] for w in doc["workloads"]]
    check(set(gated) <= set(run.WORKLOAD_NAMES) and len(set(gated)) >= 2,
          "BENCHMARK.json names two or more of run.py's workloads")


def check_run_output(trace: int):
    _, end_to_end, per_layer = declared()
    expected = per_layer if trace else end_to_end
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "exact-ladder", "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    check(proc.returncode == 0, f"run.py --trace {trace} exits 0")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"--trace {trace}: last line has exactly the four keys")
    check(result["correct"] and result["failed"] == 0,
          f"--trace {trace}: outputs correct")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == expected, f"--trace {trace}: every named metric with its unit")
    text = "\n".join(lines[:-1])
    for name, unit in expected.items():
        line = next((ln for ln in lines[:-1]
                     if ln.split()[:1] == [name]), "")
        check(unit in line.split() and (trace or "median of" in line),
              f"--trace {trace}: {name} printed with unit {unit}"
              + ("" if trace else " and sample count"))
    check("fail_frac" in text, f"--trace {trace}: fail_frac printed")


def check_wrong_expectation():
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=ROOT)
    try:
        true = workloads.SuitePass("float").run(2024, scratch)
        check(true.failed == 0, "true expectation: suite pass has no failures")
        truth = workloads.SuiteExpectation()
        # one documented mismatch slot is now expected to pass
        wrong = dataclasses.replace(
            truth, mismatch_ids=truth.mismatch_ids
            - {"transfer.table.charge_constants.m3"})
        result = workloads.SuitePass("float", wrong).run(2024, scratch)
        frac = result.failed / result.attempted
        check(frac > 0, f"wrong expectation: fail_frac {frac:.4f} > 0")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main() -> int:
    check_declarations()
    check_run_output(0)
    check_run_output(1)
    check_wrong_expectation()
    print(f"{len(FAILURES)} self-test failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
