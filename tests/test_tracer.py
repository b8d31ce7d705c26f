"""The benchmark's span tracer (``perfbench/tracer.py``) against this
program: it wraps ``ExactComplex`` and ``ExpPoly`` methods by name, so a
renamed or removed method would break every traced benchmark run."""

import importlib.util
import sys
from fractions import Fraction as F
from pathlib import Path

from qnls import transfer as tr
from qnls.exact import ExactComplex
from qnls.laurent import LaurentSeries
from qnls.planewaves import ExpPoly

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    """The tracer module, loaded from its file without writing bytecode
    next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_exact_arithmetic_and_restores(monkeypatch):
    originals = [(ExactComplex, "__mul__", ExactComplex.__mul__),
                 (ExactComplex, "__add__", ExactComplex.__add__),
                 (ExpPoly, "mul", ExpPoly.mul),
                 (LaurentSeries, "log", LaurentSeries.log)]
    tracer = load_tracer(monkeypatch).Tracer()
    tracer.install()
    try:
        assert all(getattr(cls, attr) is not fn for cls, attr, fn in originals)
        series = tr.asymptotic_product_series([F(1, 2), F(-2), F(3)], F(3, 2), 8)
        assert series.log().exp() == series
    finally:
        tracer.uninstall()
    assert tracer.counts["exact.mul_calls"] > 0
    assert tracer.counts["exact.add_calls"] > 0
    assert any(span[0] == "laurent.log_exp" for span in tracer.spans)
    for cls, attr, fn in originals:
        assert getattr(cls, attr) is fn, f"{cls.__name__}.{attr} not restored"
