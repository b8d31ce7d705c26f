"""Verification report assembly, JSON persistence and Markdown rendering.

The JSON document is fully deterministic for a fixed configuration and
seed: keys are sorted, the check list is ordered by check id, and wall
clock data lives only in the Markdown rendering and the output
directory name, never in the JSON payload.
"""

from __future__ import annotations

import json
import operator
import os
import platform
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

SCHEMA_VERSION = 1

VERDICTS = ("pass", "fail", "expected-mismatch")

# how a residual must compare with its tolerance to pass: an "exact-zero"
# residual is an exact size (a count), a "predicate" residual information
COMPARISONS = {"<=": operator.le, "<": operator.lt, ">": operator.gt,
               "exact-zero": lambda residual, _: residual == 0,
               "predicate": lambda residual, _: True}


def judge(comparison: str, residual, tolerance, holds: bool = True,
          expected: bool = False) -> str:
    """``pass`` when the residual compares with the tolerance as declared
    and ``holds``, the conditions the numbers do not show; otherwise
    ``expected-mismatch`` for a documented mismatch, else ``fail``."""
    if holds and COMPARISONS[comparison](residual, tolerance):
        return "pass"
    return "expected-mismatch" if expected else "fail"


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    group: str
    anchor: str
    params: dict
    residual: object          # float, exact size, "exact-zero", or None
    tolerance: object         # float or None
    verdict: str
    detail: str = ""
    comparison: str = "predicate"   # a COMPARISONS key; not in the JSON

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"bad verdict {self.verdict!r}")
        if self.comparison not in COMPARISONS:
            raise ValueError(f"bad comparison {self.comparison!r}")

    def to_json_dict(self) -> dict:
        return {
            "check": self.check_id,
            "group": self.group,
            "anchor": self.anchor,
            "params": self.params,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "detail": self.detail,
            "pass": self.verdict != "fail",
        }


@dataclass
class VerificationReport:
    mode: str
    seed: int
    checks: list = field(default_factory=list)
    conventions: dict = field(default_factory=dict)

    def add(self, record: CheckRecord):
        self.checks.append(record)

    def extend(self, records):
        self.checks.extend(records)

    def summary(self) -> dict:
        counts = {v: 0 for v in VERDICTS}
        for rec in self.checks:
            counts[rec.verdict] += 1
        counts["total"] = len(self.checks)
        counts["ok"] = counts["fail"] == 0
        return counts

    def exit_code(self) -> int:
        return 0 if self.summary()["fail"] == 0 else 1

    def to_json_dict(self) -> dict:
        checks = sorted(self.checks, key=lambda r: r.check_id)
        return {
            "schema": SCHEMA_VERSION,
            "mode": self.mode,
            "seed": self.seed,
            "conventions": self.conventions,
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "checks": [rec.to_json_dict() for rec in checks],
            "summary": self.summary(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def _fmt_residual(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    return f"{value:.3e}"


def render_markdown(report: VerificationReport, timestamp: str | None = None) -> str:
    """Human-readable summary grouped by suite, with the coefficient
    adjudication rendered as its own table."""
    lines = ["# Conservation-law verification report", ""]
    if timestamp:
        lines.append(f"Generated: {timestamp}")
    summary = report.summary()
    lines += [
        f"Mode: `{report.mode}`, seed: {report.seed}",
        "",
        f"**{summary['pass']} pass / {summary['fail']} fail / "
        f"{summary['expected-mismatch']} expected-mismatch "
        f"({summary['total']} checks)**",
        "",
    ]
    for key, value in sorted(report.conventions.items()):
        lines.append(f"- convention: {key} = {value}")
    if report.conventions:
        lines.append("")

    checks = sorted(report.checks, key=lambda r: r.check_id)
    adjudication = [r for r in checks if r.anchor.startswith("coefficient-table")]
    groups: dict = {}
    for rec in checks:
        if rec in adjudication:
            continue
        groups.setdefault(rec.group, []).append(rec)

    for group in sorted(groups):
        lines += [f"## {group}", "",
                  "| check | identity | residual | verdict |",
                  "|---|---|---|---|"]
        for rec in groups[group]:
            verdict = rec.verdict.upper() if rec.verdict == "fail" else rec.verdict
            lines.append(f"| {rec.check_id} | {rec.anchor} | "
                         f"{_fmt_residual(rec.residual)} | {verdict} |")
        lines.append("")

    if adjudication:
        lines += ["## expansion-coefficient adjudication", "",
                  "The product expansion of the transfer eigenvalue is the",
                  "ground truth; printed tables are transcribed verbatim and",
                  "judged against it.", "",
                  "| source | order | printed | oracle | verdict |",
                  "|---|---|---|---|---|"]
        for rec in adjudication:
            verdict = rec.verdict.upper() if rec.verdict == "fail" else rec.verdict
            lines.append(
                f"| {rec.params.get('source', '?')} | {rec.params.get('order', '?')} "
                f"| {rec.params.get('printed', '?')} | {rec.params.get('oracle', '?')} "
                f"| {verdict} |")
        lines.append("")
    return "\n".join(lines) + "\n"


def write_report(report: VerificationReport, out_dir: str) -> dict:
    """Persist JSON and Markdown under out_dir/<timestamp>/ and refresh
    the out_dir/latest copy."""
    stamp = time.strftime("%Y%m%dT%H%M%S")
    run_dir = os.path.join(out_dir, stamp)
    suffix = 0
    while os.path.exists(run_dir):
        suffix += 1
        run_dir = os.path.join(out_dir, f"{stamp}-{suffix}")
    os.makedirs(run_dir, exist_ok=True)
    json_path = os.path.join(run_dir, "report.json")
    md_path = os.path.join(run_dir, "report.md")
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    with open(md_path, "w", encoding="utf-8") as fh:
        fh.write(render_markdown(report, timestamp=stamp))
    latest = os.path.join(out_dir, "latest")
    os.makedirs(latest, exist_ok=True)
    shutil.copy2(json_path, os.path.join(latest, "report.json"))
    shutil.copy2(md_path, os.path.join(latest, "report.md"))
    return {"run_dir": run_dir, "json": json_path, "markdown": md_path,
            "latest": latest}
