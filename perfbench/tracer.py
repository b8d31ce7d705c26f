"""In-memory span tracer that wraps the public functions of each qnls layer.

The tracer patches functions from the benchmark's side only; nothing in
``src/qnls`` is edited.  A wrapped call records a span ``[name, start,
end, parent]``; a layer's self time is its spans' durations minus the
time covered by their child spans.  Cheap counters (exact arithmetic,
term merging, quadrature evaluations) are recorded without spans.

Functions are replaced wherever a module holds them, not only in the
defining module: ``suites`` imports ``build_bethe`` and ``solve`` by
name, ``cli`` imports ``run_suites``, and ``suites.SUITE_RUNNERS``
holds the suite runners in a dict.  Every binding is restored on exit.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import types
from collections import Counter, defaultdict

import numpy as np

# span name -> (module, attribute) targets; each span name yields the
# per-layer metric "<name>_s" (self time)
FUNCTION_SPANS = {
    "cli.main": [("qnls.cli", "main")],
    "config.build": [("qnls.config", "build_config"),
                     ("qnls.config", "parse_config_file")],
    "report.write": [("qnls.report", "write_report"),
                     ("qnls.report", "render_markdown")],
    "planewaves.build_bethe": [("qnls.planewaves", "build_bethe"),
                               ("qnls.planewaves", "symmetrized_plane_wave")],
    "charges.identities": [("qnls.charges", "interior_eigen_residual"),
                           ("qnls.charges", "all_boundary_residuals")],
    "charges.defect_scan": [("qnls.charges", "g4_defect_scan")],
    "charges.overlap": [("qnls.charges", "normalized_pair_delta_overlap"),
                        ("qnls.charges", "pair_delta_overlap"),
                        ("qnls.charges", "norm_sq")],
    "charges.compositions": [("qnls.charges", "composition_identity_check")],
    "bethe.solve": [("qnls.bethe", "solve")],
    "transfer.series": [("qnls.transfer", "asymptotic_product_series")],
    "transfer.adjudicate": [("qnls.transfer",
                             "charge_coefficients_from_formulas")],
    "lattice.sector": [("qnls.lattice", "tau_sector_matrix")],
    "lattice.monodromy": [("qnls.lattice", "monodromy")],
    "lattice.checks": [("qnls.lattice", name) for name in (
        "rtt_residual", "tau_commutator_norm", "hermiticity_pairing_defect",
        "number_conservation_defect", "transfer_operator",
        "continuum_limit_rate", "one_particle_eigenvalue",
        "normal_ordering_breakdown", "ordering_defect_rate")],
    "aop.apply_A": [("qnls.integral_operator", "apply_A")],
    "aop.numeric": [("qnls.integral_operator", "apply_A_numeric_point")],
    "aop.expand": [("qnls.integral_operator", "asymptotic_expand"),
                   ("qnls.integral_operator", "nonuniformity_scan")],
}

# span name -> (class path, method names)
METHOD_SPANS = {
    "planewaves.expoly": ("qnls.planewaves.ExpPoly", (
        "__add__", "__sub__", "scale", "weighted", "mul", "differentiate",
        "substitute_equal", "restrict_to_boundary", "from_terms")),
    "planewaves.evaluate": ("qnls.planewaves.ExpPoly", ("evaluate",)),
    "laurent.log_exp": ("qnls.laurent.LaurentSeries", ("log", "exp")),
}

SUITE_NAMES = ("waves", "charges", "bethe", "transfer", "lattice", "aop")

# bytes of one complex128 dense block, times the blocks one monodromy
# call holds at once: 4 running products, 4 embedded site operators and
# the 4 new products
MONODROMY_BLOCKS = 12
COMPLEX_BYTES = 16

# metric name -> unit, for every per-layer metric a traced pass reports
LAYER_UNITS = {f"suites.{name}_s": "s" for name in SUITE_NAMES}
LAYER_UNITS.update({f"{span}_s": "s" for span in (
    "cli.main", "config.build", "report.write", "planewaves.build_bethe",
    "planewaves.expoly", "planewaves.evaluate", "charges.identities",
    "charges.defect_scan", "charges.overlap", "charges.compositions",
    "bethe.solve", "transfer.series", "transfer.adjudicate",
    "laurent.log_exp", "lattice.sector", "lattice.monodromy",
    "lattice.checks", "aop.apply_A", "aop.numeric", "aop.expand")})
LAYER_UNITS.update({
    "report.json_bytes": "bytes",
    "exact.mul_calls": "count",
    "exact.add_calls": "count",
    "planewaves.build_bethe_calls": "count",
    "planewaves.expoly_calls": "count",
    "planewaves.terms_in": "count",
    "planewaves.terms_out": "count",
    "planewaves.cancel_ratio": "ratio",
    "planewaves.eval_points": "count",
    "charges.leggauss_calls": "count",
    "charges.quad_calls": "count",
    "charges.quad_evals": "count",
    "bethe.solve_calls": "count",
    "bethe.newton_iters": "count",
    "lattice.sector_products": "count",
    "lattice.monodromy_calls": "count",
    "lattice.dense_bytes": "bytes-computed",
    "aop.apply_A_calls": "count",
})
# lattice sizes swept by the lattice-sweep workload: dense engine at
# M = 4, 5, sector commutators at M = 6..8, continuum fit at M >= 16
LATTICE_SWEEP_SITES = (4, 5, 6, 7, 8, 16, 24, 32, 48, 72)
# engine time at each size, nested inside the lattice spans above
SITE_TOTALS = frozenset(f"lattice.m{m}_s" for m in LATTICE_SWEEP_SITES)
LAYER_UNITS.update({name: "s" for name in SITE_TOTALS})


def _resolve(path: str):
    module, _, attr = path.rpartition(".")
    return getattr(sys.modules[module], attr)


class Tracer:
    """Collects spans and counters while its patches are installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.lattice_site_time: defaultdict = defaultdict(float)
        self.dense_bytes = 0
        self._stack: list = []
        self._undo: list = []

    # -- span recording --------------------------------------------------
    def _spanned(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if after is not None:
                after(rec, args, result)
            return result

        return traced

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ----------------------------------------------------------
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, replacement):
        """Rebind every qnls module global and SUITE_RUNNERS entry that
        is ``original``, plus the benchmark's own workload module."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "qnls"
                                      or mod_name.startswith("qnls.")
                                      or mod_name == "workloads"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)
        runners = sys.modules["qnls.suites"].SUITE_RUNNERS
        for key, value in list(runners.items()):
            if value is original:
                self._undo.append((runners, key, value))
                runners[key] = replacement

    def _wrap_method(self, cls, attr, wrapper_factory):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            self._set(cls, attr, staticmethod(wrapper_factory(raw.__func__)))
        else:
            self._set(cls, attr, wrapper_factory(raw))

    def install(self):
        import qnls.cli  # noqa: F401 - loads every layer
        from qnls import suites
        from qnls.exact import ExactComplex
        from qnls.planewaves import ExpPoly

        after = {
            "planewaves.build_bethe": self._after_build,
            "bethe.solve": self._after_solve,
            "lattice.sector": self._after_sector,
            "lattice.monodromy": self._after_monodromy,
            "aop.apply_A": self._after_apply_a,
        }
        for name, targets in FUNCTION_SPANS.items():
            for module, attr in targets:
                original = getattr(sys.modules[module], attr)
                hook = after.get(name)
                if name == "planewaves.build_bethe" and attr != "build_bethe":
                    hook = None
                self._replace_everywhere(original,
                                         self._spanned(name, original, hook))
        for suite in SUITE_NAMES:
            original = suites.SUITE_RUNNERS[suite]
            self._replace_everywhere(original,
                                     self._spanned(f"suites.{suite}", original))

        for name, (cls_path, methods) in METHOD_SPANS.items():
            cls = _resolve(cls_path)
            hook = self._after_evaluate if name == "planewaves.evaluate" else None
            counter = "planewaves.expoly_calls" \
                if name == "planewaves.expoly" else None
            for attr in methods:
                def factory(fn, name=name, hook=hook, counter=counter):
                    wrapped = self._spanned(name, fn, hook)
                    return self._counted(counter, wrapped) if counter else wrapped
                self._wrap_method(cls, attr, factory)

        for attr in ("__mul__", "__rmul__"):
            self._wrap_method(ExactComplex, attr,
                              lambda fn: self._counted("exact.mul_calls", fn))
        for attr in ("__add__", "__radd__", "__sub__"):
            self._wrap_method(ExactComplex, attr,
                              lambda fn: self._counted("exact.add_calls", fn))
        self._wrap_method(ExpPoly, "_merged", self._merge_counter)

        # charges reaches quadrature and Gauss-Legendre nodes by attribute
        # lookup; give it a private quad and count the integrand calls
        charges = sys.modules["qnls.charges"]
        self._set(charges, "integrate",
                  types.SimpleNamespace(quad=self._counted_quad(
                      charges.integrate.quad)))
        legendre = np.polynomial.legendre
        self._set(legendre, "leggauss",
                  self._counted("charges.leggauss_calls", legendre.leggauss))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- counters ----------------------------------------------------------
    def _merge_counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def merged(poly, raw_terms):
            raw = list(raw_terms)
            out = fn(poly, raw)
            counts["planewaves.terms_in"] += len(raw)
            counts["planewaves.terms_out"] += len(out.terms)
            return out

        return merged

    def _counted_quad(self, quad):
        counts = self.counts

        def traced_quad(fn, a, b, *args, **kwargs):
            counts["charges.quad_calls"] += 1

            def integrand(*x):
                counts["charges.quad_evals"] += 1
                return fn(*x)

            return quad(integrand, a, b, *args, **kwargs)

        return traced_quad

    def _after_build(self, rec, args, result):
        self.counts["planewaves.build_bethe_calls"] += 1

    def _after_solve(self, rec, args, result):
        self.counts["bethe.solve_calls"] += 1
        self.counts["bethe.newton_iters"] += result.iterations

    def _after_sector(self, rec, args, result):
        spec, configs = args[0], args[2]
        self.counts["lattice.sector_products"] += len(configs) ** 2 * spec.sites
        self.lattice_site_time[spec.sites] += rec[2] - rec[1]

    def _after_monodromy(self, rec, args, result):
        spec = args[0]
        self.counts["lattice.monodromy_calls"] += 1
        dim = spec.cutoff ** spec.sites
        self.dense_bytes = max(self.dense_bytes,
                               MONODROMY_BLOCKS * COMPLEX_BYTES * dim * dim)
        self.lattice_site_time[spec.sites] += rec[2] - rec[1]

    def _after_apply_a(self, rec, args, result):
        self.counts["aop.apply_A_calls"] += 1

    def _after_evaluate(self, rec, args, result):
        points = np.asarray(args[1])
        self.counts["planewaves.eval_points"] += \
            1 if points.ndim == 1 else points.shape[0]

    # -- results -----------------------------------------------------------
    def self_times(self) -> dict:
        """Self time per span name: duration minus child durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: defaultdict = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[idx]
        return dict(totals)

    def layer_metrics(self) -> dict:
        """Every per-layer metric of LAYER_UNITS that the trace defines."""
        out = {name: 0.0 if unit != "count" else 0
               for name, unit in LAYER_UNITS.items()}
        for name, seconds in self.self_times().items():
            out[f"{name}_s"] = seconds
        out.update(self.counts)
        t_in = self.counts["planewaves.terms_in"]
        out["planewaves.cancel_ratio"] = \
            1.0 - self.counts["planewaves.terms_out"] / t_in if t_in else 0.0
        out["lattice.dense_bytes"] = self.dense_bytes
        for m in LATTICE_SWEEP_SITES:
            out[f"lattice.m{m}_s"] = self.lattice_site_time.get(m, 0.0)
        return out

    def write_spans(self, path: str, pass_id: str):
        """Write every span as one JSON document; parents are indices."""
        doc = {"pass": pass_id, "fields": ["name", "start", "end", "parent"],
               "spans": self.spans}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
