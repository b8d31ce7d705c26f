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


def test_continuum_rate_study_defaults(capsys):
    assert load_script("continuum_rate_study").main([]) == 0
    out = capsys.readouterr().out
    fitted = re.search(r"fitted orders: vacuum raw (\S+), normalized (\S+); "
                       r"one-particle raw (\S+), normalized (\S+)", out)
    assert fitted is not None
    _, vac_norm, _, one_norm = map(float, fitted.groups())
    assert vac_norm >= 1.0 and one_norm >= 1.0
    assert "fitted step order" in out
