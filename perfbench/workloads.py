"""Benchmark workloads: inputs drawn from the seed, one pass each, and the
checks that judge every output of the pass.

A pass returns a PassResult.  ``attempted`` counts operations (one suite
check, one ladder state or series round trip, one lattice call) and
``failed`` counts those whose output missed its expectation or raised.
``digest`` fingerprints the outputs so that passes of one seed can be
compared byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction

from qnls import charges as ch
from qnls import cli
from qnls import lattice as lat
from qnls import planewaves as pw
from qnls import transfer as tr


@dataclass
class PassResult:
    attempted: int
    failed: int = 0
    misses: list = field(default_factory=list)
    digest: str = ""
    extra: dict = field(default_factory=dict)
    inputs: str = ""


def _sha256(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# suite-exact / suite-float: the default user run, `qnls run all`
# ----------------------------------------------------------------------

# (source, order) slots where the printed expansion tables disagree with
# the product oracle; fixed here, independently of the program's copy
EXPECTED_MISMATCH_SLOTS = (
    ("charge_constants", 3),
    ("charge_constants", 4),
    ("eigenvalue_expansion", 2),
    ("eigenvalue_expansion", 3),
    ("log_operator_expansion", 4),
)


@dataclass(frozen=True)
class SuiteExpectation:
    """Every check passes except the documented expected mismatches."""

    total: int = 77
    mismatch_ids: frozenset = frozenset(
        f"transfer.table.{source}.m{order}"
        for source, order in EXPECTED_MISMATCH_SLOTS)

    def verdict_for(self, check_id: str) -> str:
        return "expected-mismatch" if check_id in self.mismatch_ids else "pass"


def check_suite_report(doc: dict, expect: SuiteExpectation) -> list:
    """One miss per check whose verdict is not the expected one, plus
    one per expected check that is absent."""
    misses = []
    seen = set()
    for rec in doc["checks"]:
        check_id = rec["check"]
        seen.add(check_id)
        want = expect.verdict_for(check_id)
        if rec["verdict"] != want:
            misses.append(f"{check_id}: {rec['verdict']} "
                          f"(expected {want}) {rec.get('detail', '')}")
    for check_id in sorted(expect.mismatch_ids - seen):
        misses.append(f"{check_id}: missing")
    if len(doc["checks"]) != expect.total:
        misses.append(f"{len(doc['checks'])} checks (expected {expect.total})")
    return misses


# The cost of `qnls run all` depends on its seed: the float quadrature
# of the integral-operator cross-check alone took 0.3 s to 3.6 s over
# seeds 1..20 on two cores.  The suite workloads therefore pin the
# program's seed to the baseline seed, so that runs compare like with
# like; the benchmark seed drives the other workloads' inputs.
SUITE_SEED = 2024


class SuitePass:
    """`qnls run all --mode <mode> --seed 2024`, then read back report.json."""

    def __init__(self, mode: str, expect: SuiteExpectation = SuiteExpectation()):
        self.mode = mode
        self.expect = expect
        self.operations = expect.total

    def run(self, seed: int, scratch: str) -> PassResult:
        argv = ["run", "all", "--mode", self.mode, "--seed", str(SUITE_SEED)]
        out_dir = tempfile.mkdtemp(prefix="report-", dir=scratch)
        try:
            code = cli.main(argv + ["--out", out_dir, "--quiet"])
            with open(os.path.join(out_dir, "latest", "report.json"), "rb") as fh:
                data = fh.read()
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        doc = json.loads(data)
        misses = check_suite_report(doc, self.expect)
        if code != (1 if doc["summary"]["fail"] else 0):
            misses.append(f"exit code {code} disagrees with the summary")
        return PassResult(
            attempted=self.expect.total,
            failed=min(len(misses), self.expect.total),
            misses=misses,
            digest=hashlib.sha256(data).hexdigest(),
            extra={"report.json_bytes": len(data)},
            inputs="qnls " + " ".join(argv))


# ----------------------------------------------------------------------
# exact-ladder: exact charge identities at growing N, series round trips
# at growing order
# ----------------------------------------------------------------------

LADDER_SIZES = (4, 5, 6)
SERIES_ORDERS = (24, 48, 72)


def ladder_inputs(seed: int) -> dict:
    """Random rational states drawn as the verification suites draw them:
    rapidities p/q with |p| <= 18, 1 <= q <= 6, coupling p/q with
    1 <= p <= 12, 1 <= q <= 4."""
    rng = random.Random(f"exact-ladder:{seed}")
    states = []
    for n in LADDER_SIZES:
        values: set = set()
        while len(values) < n:
            values.add(Fraction(rng.randint(-18, 18), rng.randint(1, 6)))
        coupling = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        states.append((n, sorted(values), coupling))
    series = []
    for order in SERIES_ORDERS:
        values = [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                  for _ in range(3)]
        series.append((order, values, Fraction(rng.randint(1, 6),
                                                rng.randint(1, 3))))
    return {"states": states, "series": series}


def ladder_state_misses(n: int, values, coupling) -> tuple:
    """Build the exact state and return (term count, non-empty residuals)."""
    w = pw.build_bethe(pw.RapiditySet.of(values), pw.Coupling(coupling))
    bad = [] if w.exact else ["state is not exact"]
    for name, spec in ch.CHARGES.items():
        if n >= spec.min_particles() \
                and not ch.interior_eigen_residual(name, w).is_empty():
            bad.append(f"interior {name}")
    for key, res in ch.all_boundary_residuals(w).items():
        if not res.is_empty():
            bad.append(f"boundary {key}")
    return w.canonical.term_count(), bad


class LadderPass:
    operations = len(LADDER_SIZES) + len(SERIES_ORDERS)

    def run(self, seed: int, scratch: str) -> PassResult:
        inputs = ladder_inputs(seed)
        described = [f"N={n} k={','.join(map(str, values))} c={coupling}"
                     for n, values, coupling in inputs["states"]]
        described += [f"order={order} k={','.join(map(str, values))} c={c}"
                      for order, values, c in inputs["series"]]
        result = PassResult(attempted=self.operations,
                            inputs="; ".join(described))
        fingerprint = []
        for n, values, coupling in inputs["states"]:
            start = time.perf_counter()
            terms, bad = ladder_state_misses(n, values, coupling)
            result.extra[f"ladder.n{n}_state_s"] = time.perf_counter() - start
            result.misses += [f"N={n} {values} c={coupling}: {b}" for b in bad]
            result.failed += bool(bad)
            fingerprint.append([n, terms, bad])
        for order, values, coupling in inputs["series"]:
            start = time.perf_counter()
            series = tr.asymptotic_product_series(values, coupling, order)
            ok = series.log().exp() == series
            result.extra[f"ladder.order{order}_s"] = time.perf_counter() - start
            if not ok:
                result.misses.append(f"order {order} {values}: log/exp round trip")
            result.failed += not ok
            fingerprint.append([order, [str(series.coefficient(m))
                                        for m in range(order + 1)]])
        result.digest = _sha256(fingerprint)
        return result


# ----------------------------------------------------------------------
# lattice-sweep: both lattice engines past the sizes the suite uses
# ----------------------------------------------------------------------

SWEEP_SITES = (16, 24, 32, 48, 72)           # sector engine, continuum fit
COMMUTATOR_CASES = ((6, 2), (7, 2), (8, 2), (6, 3))   # (sites, sector)
DENSE_STEP = 0.3
RTT_SITES = CONSERVATION_SITES = 4           # dense engine, dimension 4^4
HERMITICITY_SITES = 5                        # dense engine, dimension 4^5
DENSE_CUTOFF = 4

# thresholds of the lattice verification suite
CONTINUUM_MIN_ORDER = {"order_vacuum_normalized": 1.0,
                       "order_one_particle_normalized": 1.0,
                       "order_vacuum_raw": 0.8,
                       "order_one_particle_raw": 0.8}
COMMUTATOR_TOL = 1e-12
HERMITICITY_TOL = 1e-12
RTT_TOL = 1e-12


def lattice_inputs(seed: int) -> dict:
    rng = random.Random(f"lattice-sweep:{seed}")

    def spectral(im_range=1.0):
        return complex(rng.uniform(-2, 2), rng.uniform(-im_range, im_range))

    lam = spectral(2.0)
    mu = spectral(2.0)
    if abs(lam - mu) < 1e-3:
        mu += 0.5
    return {
        "c": rng.uniform(0.8, 1.25),
        "continuum_lam": rng.uniform(0.7, 1.1),
        "commutators": [(m, sector, spectral(), spectral())
                        for m, sector in COMMUTATOR_CASES],
        "rtt": (lam, mu),
        "conservation_lam": spectral(),
        "hermiticity_lam": rng.uniform(-2, 2),
    }


class LatticePass:
    operations = 4 + len(COMMUTATOR_CASES)

    def run(self, seed: int, scratch: str) -> PassResult:
        inp = lattice_inputs(seed)
        c = inp["c"]
        outcomes = []

        rep = lat.continuum_limit_rate(c, 2.0 * math.pi, inp["continuum_lam"],
                                       site_counts=SWEEP_SITES)
        orders = {key: rep[key] for key in CONTINUUM_MIN_ORDER}
        outcomes.append(("continuum", all(orders[k] >= v for k, v in
                                          CONTINUUM_MIN_ORDER.items()),
                         {k: f"{v:.6f}" for k, v in orders.items()}))

        for m, sector, lam, mu in inp["commutators"]:
            spec = lat.LatticeSpec(m, sector + 2, DENSE_STEP, c)
            norm = lat.tau_commutator_norm(lam, mu, spec, sector)
            outcomes.append((f"commutator M={m} N={sector}",
                             norm < COMMUTATOR_TOL, f"{norm:.1e}"))

        lam, mu = inp["rtt"]
        res = lat.rtt_residual(lam, mu, lat.LatticeSpec(
            RTT_SITES, DENSE_CUTOFF, DENSE_STEP, c))
        outcomes.append(("rtt", res["residual"] < RTT_TOL
                         and res["ordering"] == "lam_mu", res["ordering"]))

        defect = lat.number_conservation_defect(lat.LatticeSpec(
            CONSERVATION_SITES, DENSE_CUTOFF, DENSE_STEP, c),
            inp["conservation_lam"])
        outcomes.append(("number conservation", defect == 0.0, f"{defect:.1e}"))

        pairing = lat.hermiticity_pairing_defect(lat.LatticeSpec(
            HERMITICITY_SITES, DENSE_CUTOFF, DENSE_STEP, c),
            inp["hermiticity_lam"])
        outcomes.append(("hermiticity", pairing <= HERMITICITY_TOL,
                         f"{pairing:.1e}"))

        misses = [f"{name}: {detail}" for name, ok, detail in outcomes if not ok]
        # residuals near round-off are left out of the fingerprint
        fingerprint = [(name, ok, detail if name == "continuum" else None)
                       for name, ok, detail in outcomes]
        return PassResult(attempted=self.operations, failed=len(misses),
                          misses=misses, digest=_sha256(fingerprint),
                          inputs=str(inp))


WORKLOADS = {
    "suite-exact": SuitePass("exact"),
    "suite-float": SuitePass("float"),
    "exact-ladder": LadderPass(),
    "lattice-sweep": LatticePass(),
}
