"""Every verdict earned: named program faults and a seed sweep.

Each fault is a monkeypatch of one program function or registry entry
that models a plausible bug.  It lists the suites it touches and the
check ids that must fail under it, in both modes; every other check of
those suites must keep the verdict of a clean run at the same seed.

The seed sweep runs ``qnls run all`` at a few seeds in both modes.  The
full sweep over seeds 1-40, with every report compared to another
checkout's, runs by hand from the root of a checkout (OTHER the root of
the other one):

    for mode in exact float; do for seed in $(seq 1 40); do
      for tree in . OTHER; do
        PYTHONPATH=$tree/src python3 -m qnls.cli run all --mode $mode \\
          --seed $seed --out /tmp/sweep/$tree/$mode/$seed --quiet
      done
      cmp /tmp/sweep/./$mode/$seed/latest/report.json \\
          /tmp/sweep/OTHER/$mode/$seed/latest/report.json
    done; done
"""

import json
from fractions import Fraction as F

import numpy as np
import pytest

from qnls import bethe, charges as ch, integral_operator as aop, lattice as lat
from qnls import suites, transfer as tr
from qnls.cli import main
from qnls.config import RunConfig
from qnls.laurent import LaurentSeries
from qnls.planewaves import BetheWavefunction, Coupling

SWEEP_SEEDS = range(1, 5)
MODES = ("exact", "float")


def amplitudes_at(factor, state: int):
    """Bethe amplitudes built at factor * c under the declared coupling c
    for the given state (0-based) of each batch of states: the suite
    builds the 20 states of each ``charges.identities`` check in one
    call, so one state of each such check is wrong."""
    def patch(monkeypatch):
        build = suites.build_bethe

        def faulty(rapidities, coupling):
            states = build(rapidities, coupling)
            if type(rapidities) is list:
                raps, c = rapidities[state], coupling[state]
                wrong = build(raps, Coupling(c.c * factor)).canonical
                states[state] = BetheWavefunction(raps, c, wrong)
            return states
        monkeypatch.setattr(suites, "build_bethe", faulty)
    return patch


def registered(name: str, spec: ch.FreeChargeSpec):
    """The charge ``name`` registered as ``spec``."""
    def patch(monkeypatch):
        monkeypatch.setitem(ch.CHARGES, name, spec)
    return patch


def lattice_table(edit):
    """Every lattice site factor table with ``edit`` applied to it."""
    def patch(monkeypatch):
        build = lat._site_factor_table

        def faulty(*args, **kwargs):
            table = build(*args, **kwargs)
            edit(table)
            return table
        monkeypatch.setattr(lat, "_site_factor_table", faulty)
    return patch


def gauss_node_shifted(monkeypatch):
    """Node 10 of the shared 48-node rule moved by +1e-3, in ``charges``
    and in ``integral_operator``, which imports the rule by name."""
    nodes, weights = ch.gauss_rule()
    nodes = nodes.copy()
    nodes[10] += 1e-3
    for module in (ch, aop):
        monkeypatch.setattr(module, "gauss_rule", lambda: (nodes, weights))


def full_subset_dropped(monkeypatch):
    """``apply_A`` without the integral over the full coordinate subset:
    its terms never reach the merge."""
    integral = aop._subset_integral

    def faulty(coeffs, freqs, mus, inverses, subset, *rest):
        if len(subset) == len(freqs):
            return ()
        return integral(coeffs, freqs, mus, inverses, subset, *rest)
    monkeypatch.setattr(aop, "_subset_integral", faulty)


def bethe_phase_202(monkeypatch):
    """The Bethe equations solved with the two-body phase 2.02 arctan."""
    def faulty(k, box, I):
        with np.errstate(over="ignore"):
            phases = 2.02 * np.arctan((k[:, None] - k[None, :]) / box.c)
        np.fill_diagonal(phases, 0.0)
        return k * box.L + phases.sum(axis=1) - 2.0 * np.pi * I
    monkeypatch.setattr(bethe, "_log_residual", faulty)


def m2_dropped(owner, name: str):
    """``owner.name``, a function returning a series, with coefficient 2
    of every result zeroed: a dropped Laurent term."""
    def patch(monkeypatch):
        series_of = getattr(owner, name)

        def faulty(*args, **kwargs):
            series = series_of(*args, **kwargs)
            coeffs = list(series.coeffs)
            coeffs[2] = series.field.zero
            return LaurentSeries(series.order, tuple(coeffs), series.field)
        monkeypatch.setattr(owner, name, faulty)
    return patch


def b_scaled(table):
    """B entries 2% too large."""
    table[:, :, 0, 1] *= 1.02


def off_band(table):
    """An A entry at n' = n + 2, which moves particle number by two."""
    if len(table) > 2:
        table[2, 0, 0, 0] = 0.5


# name -> (patch, suites it touches, check ids that must fail); N = 1
# has no pair factor, so its amplitudes do not depend on the coupling.
# A charge registered with the wrong sign keeps every identity, since the
# free part and the eigenvalue read the same registry: only the ladder
# compositions see it
FAULTS = {
    "amplitudes-at-1.1c": (amplitudes_at(F(11, 10), 6), ("charges",),
                           {f"charges.identities.n{n}" for n in (2, 3, 4)}),
    # every check that compares A(lambda) f with an independent value
    "apply-A-drops-full-subset": (
        full_subset_dropped, ("aop",),
        {"aop.boundary-value-problem", "aop.bracket-equality-generic",
         "aop.bracket-preservation", "aop.diagonality.n1",
         "aop.diagonality.n2", "aop.diagonality.n3", "aop.expansion-decay",
         "aop.numeric-cross-check"}),
    # the impenetrable-limit comparison stays inside its bound under it
    "bethe-phase-2.02": (bethe_phase_202, ("bethe",),
                         {"bethe.near-free-limit",
                          "bethe.product-residual-grid"}),
    # the quartic defect checks fit the 1/eps slope, which a fault in the
    # shared rule keeps: only the direct quadrature of A(lambda) sees it
    "gauss-node-shifted": (gauss_node_shifted, ("charges", "aop"),
                           {"aop.numeric-cross-check"}),
    "j3-sign-flipped": (
        registered("J3", ch.FreeChargeSpec("elementary", 3, -1)),
        ("charges",), {"charges.compositions"}),
    # B scaled by 1.02 and C unchanged keeps tau number-conserving, and A
    # and D stay adjoint: only the identities that pair B with C see it
    "lattice-b-times-1.02": (
        lattice_table(b_scaled), ("lattice",),
        {"lattice.commuting-family", "lattice.cutoff-control",
         "lattice.exchange-relation"}),
    # an entry off the band moves number by two, which no B or C entry
    # elsewhere undoes: the in-sector entries of tau stay as they are, and
    # only the three full-space checks see it
    "lattice-off-band-entry": (
        lattice_table(off_band), ("lattice",),
        {"lattice.adjoint-pairing", "lattice.exchange-relation",
         "lattice.number-conservation"}),
    # the round trip exponentiates the wrong log; the product itself and
    # the tables read from it stay right
    "laurent-log-drops-m2": (
        m2_dropped(LaurentSeries, "log"), ("transfer",),
        {"transfer.adjudication-complete", "transfer.log-exp-roundtrip",
         "transfer.scalar-log-oracle", "transfer.solved-states",
         "transfer.table.log_eigenvalue_expansion.m2",
         "transfer.table.log_operator_expansion.m2"}),
    # every other check compares two series both formed by the faulty
    # product, so each keeps its verdict
    "product-oracle-drops-m2": (
        m2_dropped(tr, "asymptotic_product_series"), ("transfer",),
        {f"transfer.{check}" for check in (
            "adjudication-complete", "remainder-bound", "solved-states",
            "table.charge_constants.m2", "table.log_eigenvalue_expansion.m2",
            "table.log_eigenvalue_expansion.m3",
            "table.log_eigenvalue_expansion.m4",
            "table.log_operator_expansion.m2",
            "table.log_operator_expansion.m3")}),
}


def verdicts(mode: str, suite_names, seed: int = 2024) -> dict:
    cfg = RunConfig(mode=mode, seed=seed, suites=tuple(suite_names))
    return {rec.check_id: rec.verdict
            for rec in suites.run_suites(cfg).checks}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(FAULTS))
def test_fault_fails_its_checks_and_no_others(name, mode, monkeypatch):
    patch, touched, must_fail = FAULTS[name]
    clean = verdicts(mode, touched)
    assert must_fail <= clean.keys()
    assert all(clean[check] == "pass" for check in must_fail)
    patch(monkeypatch)
    faulty = verdicts(mode, touched)
    assert faulty.keys() == clean.keys()
    changed = {check for check in clean if faulty[check] != clean[check]}
    assert changed == must_fail
    assert all(faulty[check] == "fail" for check in must_fail)


@pytest.mark.parametrize("mode", MODES)
def test_seed_sweep_has_no_failure(mode, tmp_path):
    for seed in SWEEP_SEEDS:
        out = tmp_path / f"{mode}-{seed}"
        assert main(["run", "all", "--mode", mode, "--seed", str(seed),
                     "--out", str(out), "--quiet"]) == 0, seed
        doc = json.loads((out / "latest" / "report.json").read_text())
        assert len(doc["checks"]) == 77, seed
        assert doc["summary"]["fail"] == 0, seed
        assert all(rec["verdict"] != "fail" for rec in doc["checks"]), seed
