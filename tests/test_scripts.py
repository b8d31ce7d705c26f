"""Smoke tests of the command-line scripts under scripts/."""

import importlib.util
import re
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scan_quartic_defect_short_scan(capsys):
    assert load_script("scan_quartic_defect").main(
        ["--m-min", "2", "--m-max", "6"]) == 0
    out = capsys.readouterr().out
    slope = re.search(r"log-log slope: (\S+) \(divergence exponent\)", out)
    assert slope is not None
    assert abs(float(slope.group(1)) + 1.0) <= 0.05


def test_adjudicate_expansion_tables_defaults(capsys):
    assert load_script("adjudicate_expansion_tables").main([]) == 0
    out = capsys.readouterr().out
    flagged = set(re.findall(r"^\s*(\w+)\s+(\d)\s+expected-mismatch", out, re.M))
    assert flagged == {("charge_constants", "3"), ("charge_constants", "4"),
                       ("eigenvalue_expansion", "2"),
                       ("eigenvalue_expansion", "3"),
                       ("log_operator_expansion", "4")}

