"""The benchmark's modules against this program.  The span tracer
(``perfbench/tracer.py``) wraps ``ExactComplex`` and ``ExpPoly`` methods
by name, so a renamed or removed method would break every traced
benchmark run; the workloads (``perfbench/workloads.py``) call program
functions by name and read the shape of their results."""

import importlib.util
import math
import sys
from fractions import Fraction as F
from pathlib import Path

from qnls import integral_operator as aop
from qnls import transfer as tr
from qnls.exact import ExactComplex, exact
from qnls.laurent import LaurentSeries
from qnls.planewaves import Coupling, ExpPoly, RapiditySet, build_bethe

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(monkeypatch, name):
    """A benchmark module, loaded from its file without writing bytecode
    next to it; registered while the test runs, as its dataclasses
    look their module up."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_exact_arithmetic_and_restores(monkeypatch):
    originals = [(ExactComplex, "__mul__", ExactComplex.__mul__),
                 (ExactComplex, "__add__", ExactComplex.__add__),
                 (ExpPoly, "mul", ExpPoly.mul),
                 (ExpPoly, "_merged", ExpPoly._merged),
                 (LaurentSeries, "log", LaurentSeries.log)]
    # two rapidity sets: sums of equal keys add their columns unmerged
    p, q = (build_bethe(RapiditySet.of(values), Coupling(F(1))).canonical
            for values in ([F(1, 2), F(-3, 2)], [F(1, 3), F(5, 2)]))
    tracer = load_perfbench(monkeypatch, "tracer").Tracer()
    tracer.install()
    try:
        assert all(getattr(cls, attr) is not fn for cls, attr, fn in originals)
        series = tr.asymptotic_product_series([F(1, 2), F(-2), F(3)], F(3, 2), 8)
        assert series.log().exp() == series
        # sums and differences of different keys pass the wrapped merge
        assert ((p - q) + q - p).is_empty()
    finally:
        tracer.uninstall()
    assert tracer.counts["exact.mul_calls"] > 0
    assert tracer.counts["exact.add_calls"] > 0
    assert tracer.counts["planewaves.terms_in"] \
        >= 2 * p.term_count() + 2 * q.term_count()
    assert any(span[0] == "laurent.log_exp" for span in tracer.spans)
    for cls, attr, fn in originals:
        assert getattr(cls, attr) is fn, f"{cls.__name__}.{attr} not restored"


def test_tracer_wraps_column_passes_and_apply_a_and_restores(monkeypatch):
    """A FLOAT weight, a derivative and ``apply_A`` in both fields run
    under the tracer with the results they give without it."""
    lam = aop.SpectralParameter(exact(F(1, 3), -2))
    waves = [build_bethe(RapiditySet.of(values), Coupling(c)).canonical
             for values, c in (([0.5, -1.5, 2.0], 1.5),
                               ([F(1, 2), F(-3, 2), F(2)], F(3, 2)))]

    def run():
        float_wave = waves[0]
        return [float_wave.weighted(lambda z, c: c + (z[0] - z[1]), 1, 1.5),
                float_wave.differentiate((1, 0, 2))] \
            + [aop.apply_A(lam, wave, F(3, 2)) for wave in waves]

    originals = [(ExpPoly, attr, ExpPoly.__dict__[attr])
                 for attr in ("weighted", "differentiate", "_merged")]
    apply_a = aop.apply_A
    expected = run()
    tracer = load_perfbench(monkeypatch, "tracer").Tracer()
    tracer.install()
    try:
        assert all(cls.__dict__[attr] is not fn for cls, attr, fn in originals)
        assert aop.apply_A is not apply_a
        traced = run()
    finally:
        tracer.uninstall()
    assert [list(p.terms) for p in traced] == [list(p.terms) for p in expected]
    assert tracer.counts["aop.apply_A_calls"] == 2
    assert tracer.counts["planewaves.expoly_calls"] >= 2
    assert {"aop.apply_A", "planewaves.expoly"} <= {s[0] for s in tracer.spans}
    for cls, attr, fn in originals:
        assert cls.__dict__[attr] is fn, f"{cls.__name__}.{attr} not restored"
    assert aop.apply_A is apply_a


def test_ladder_states_pass_on_the_benchmark_seed(monkeypatch):
    """``exact-ladder`` judges each state by ``ladder_state_misses``,
    which reads ``charges.all_boundary_residuals`` by name and its
    residuals by key: on the benchmark's seed-2024 states it finds no
    miss and the N! terms of each canonical sum."""
    workloads = load_perfbench(monkeypatch, "workloads")
    states = workloads.ladder_inputs(2024)["states"]
    assert [n for n, _, _ in states] == list(workloads.LADDER_SIZES)
    for n, values, coupling in states:
        assert workloads.ladder_state_misses(n, values, coupling) \
            == (math.factorial(n), [])
