"""Acceptance criteria, one test per criterion.

Each test prints a single `[acceptance N] ...: PASS/FAIL` line (visible
with `pytest -s tests/test_acceptance.py` or in the captured output).
Tolerances are pinned here and nowhere else.
"""

import math
import random
import time
from fractions import Fraction as F

import numpy as np

from qnls import charges as ch
from qnls import integral_operator as aop
from qnls import lattice as lat
from qnls import transfer as tr
from qnls.bethe import (BoxSpec, QuantumNumbers, ground_state_quantum_numbers,
                        solve)
from qnls.config import build_config
from qnls.exact import exact
from qnls.planewaves import Coupling, RapiditySet, build_bethe
from qnls.suites import run_suites

BOX_L = 2.0 * math.pi


def _verdict(num: int, name: str, ok: bool):
    print(f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def _sample_rapidities(rng: random.Random, n: int) -> RapiditySet:
    values = set()
    while len(values) < n:
        values.add(F(rng.randint(-18, 18), rng.randint(1, 6)))
    return RapiditySet.of(sorted(values))


def _sample_coupling(rng: random.Random) -> Coupling:
    return Coupling(F(rng.randint(1, 12), rng.randint(1, 4)))


def test_criterion_1_eigen_identities_exact():
    rng = random.Random("acceptance-1")
    started = time.perf_counter()
    ok = True
    for n in range(1, 5):
        for _ in range(20):
            w = build_bethe(_sample_rapidities(rng, n), _sample_coupling(rng))
            for name, spec in ch.CHARGES.items():
                if n < spec.min_particles():
                    continue
                ok = ok and ch.interior_eigen_residual(name, w).is_empty()
            for res in ch.all_boundary_residuals(w).values():
                ok = ok and res.is_empty()
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    _verdict(1, f"eigen and boundary identities exact ({elapsed:.1f}s)", ok)


def test_criterion_2_composition_identities():
    rng = random.Random("acceptance-2")
    ok = True
    for _ in range(100):
        n = rng.randint(1, 6)
        ok = ok and ch.composition_identity_check(_sample_rapidities(rng, n))["ok"]
    _verdict(2, "eigenvalue-level composition identities (100 samples)", ok)


def test_criterion_3_squared_delta_divergence():
    w = build_bethe(RapiditySet.of([1.0, 2.0]), Coupling(0.5))
    eps = [2.0 ** (-m) for m in range(2, 13)]
    scan = ch.g4_defect_scan(w, eps, BOX_L)
    slope = ch.fit_loglog_slope(scan)
    _, remainders = ch.one_over_eps_remainders(scan)
    pts = sorted(scan, key=lambda p: p[0])
    small = max(abs(r) for r in remainders[: len(pts) // 2])
    large = max(abs(r) for r in remainders[len(pts) // 2:])
    bounded = small <= 2.0 * max(large, 1.0)
    ok = abs(slope + 1.0) <= 0.02 and bounded
    _verdict(3, f"1/width divergence of the ill-defined quartic charge "
                f"(slope {slope:.4f})", ok)


def test_criterion_4_box_roots():
    ok = True
    for n in range(1, 6):
        for c in (0.1, 1.0, 10.0, 1e4):
            box = BoxSpec(BOX_L, c, n)
            sol = solve(box, ground_state_quantum_numbers(n))
            ok = ok and sol.residual_product < 1e-10
    c = 1e4
    for n in range(1, 6):
        sol = solve(BoxSpec(BOX_L, c, n), ground_state_quantum_numbers(n))
        for k, I in zip(sol.rapidities.values, sol.quantum_numbers.I):
            ok = ok and abs(k - 2.0 * math.pi * float(I) / BOX_L) <= 5.0 / c
    _verdict(4, "box-root product residuals and impenetrable-limit bound", ok)


def test_criterion_5_expansion_adjudication():
    ok = True
    # identity level, exact arithmetic, every documented slot active
    res = tr.charge_coefficients_from_formulas([F(1), F(2), F(3)], F(3, 2))
    flagged = {(v.source, v.order) for v in res.verdicts
               if v.verdict == "expected-mismatch"}
    ok = ok and flagged == set(tr.EXPECTED_MISMATCHES)
    ok = ok and not res.has_unexpected_mismatch()
    # solved states: zeroth and first constants match the oracle
    for n in range(1, 5):
        for qn in (ground_state_quantum_numbers(n),
                   QuantumNumbers.of([F(2 * m - n + 1, 2) + 1 for m in range(n)])):
            sol = solve(BoxSpec(BOX_L, 1.7, n), qn)
            ks = [float(v) for v in sol.rapidities.values]
            r = tr.charge_coefficients_from_formulas(ks, 1.7)
            table = r.verdict_table()["charge_constants"]
            ok = ok and table[1] == "pass" and table[2] == "pass"
            ok = ok and not r.has_unexpected_mismatch()
            ok = ok and tr.remainder_bound_check(ks, 1.7, BOX_L) <= 1.0
    _verdict(5, "trace-identity adjudication with oracle and remainder bound", ok)


def test_criterion_6_lattice_integrability():
    ok = True
    rng = random.Random("acceptance-6")
    spec = lat.LatticeSpec(1, 4, 0.3, 1.3)
    worst = 0.0
    for _ in range(25):
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        mu = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(lam - mu) < 1e-3:
            mu += 0.7
        worst = max(worst, lat.rtt_residual(lam, mu, spec)["residual"])
    ok = ok and worst < 1e-12

    comm_worst = 0.0
    for M in (2, 3, 4):
        for n in (0, 1, 2, 3):
            lspec = lat.LatticeSpec(M, n + 2, 0.4, 1.1)
            for _ in range(2):
                lam = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
                mu = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
                comm_worst = max(comm_worst, lat.tau_commutator_norm(
                    lam, mu, lspec, n))
    ok = ok and comm_worst < 1e-12

    # insufficient-cutoff control, documented: one buffer level is already
    # exact in this representation; leakage begins when the cutoff equals
    # the sector occupation
    at_plus_one = lat.tau_commutator_norm(
        0.3 + 0.4j, -1.1 + 0.2j, lat.LatticeSpec(3, 3, 0.25, 1.0), 2,
        enforce_cutoff=False)
    leaking = lat.tau_commutator_norm(
        0.3 + 0.4j, -1.1 + 0.2j, lat.LatticeSpec(3, 3, 0.25, 1.0), 3,
        enforce_cutoff=False)
    print(f"   cutoff control: d=N+1 -> {at_plus_one:.2e}, "
          f"d=N -> {leaking:.2e}")
    ok = ok and at_plus_one < 1e-12 and leaking > 1e-6

    rep = lat.continuum_limit_rate(1.0, BOX_L, 0.9)
    ok = ok and rep["order_vacuum_normalized"] >= 1.0
    ok = ok and rep["order_one_particle_normalized"] >= 1.0
    _verdict(6, f"exchange relation {worst:.1e}, commutators {comm_worst:.1e}, "
                f"continuum orders {rep['order_vacuum_normalized']:.2f}/"
                f"{rep['order_one_particle_normalized']:.2f}", ok)


def test_criterion_7_integral_operator():
    ok = True
    lam = aop.SpectralParameter(exact(F(1, 3), F(-2)))
    rng = random.Random("acceptance-7")
    for n in (1, 2):
        for _ in range(3):
            w = build_bethe(_sample_rapidities(rng, n), _sample_coupling(rng))
            _, residual = aop.eigenvalue_check(lam, w)
            ok = ok and residual == 0.0
            g = aop.apply_A(lam, w.canonical, w.coupling.c)
            pde, boundary = aop.bvp_residual(lam, w.canonical, g, w.coupling.c)
            ok = ok and pde.is_empty() and all(b.is_empty() for b in boundary)
    # numeric cross-check
    lamf = 0.4 - 1.5j
    for n, pt in ((1, [0.3]), (2, [0.2, 0.9])):
        w = build_bethe(_sample_rapidities(rng, n), Coupling(1.25))
        ana = complex(aop.apply_A(
            aop.SpectralParameter(lamf), w.canonical,
            float(w.coupling.c)).evaluate(np.array(pt)))
        num = aop.apply_A_numeric_point(lamf, w, pt)
        ok = ok and abs(ana - num) / max(abs(ana), 1.0) < 1e-8
    # bracket preservation on ten crafted non-eigen inputs
    for _ in range(10):
        wa = build_bethe(_sample_rapidities(rng, 2), _sample_coupling(rng))
        wb = build_bethe(_sample_rapidities(rng, 2), wa.coupling)
        combo = wa.canonical + wb.canonical.scale(
            exact(rng.randint(-3, 3), rng.randint(1, 3)))
        g = aop.apply_A(lam, combo, wa.coupling.c)
        ok = ok and aop.pair_bracket_residual(combo, wa.coupling.c) == 0.0
        ok = ok and aop.pair_bracket_residual(g, wa.coupling.c) == 0.0
    _verdict(7, "integral-operator diagonality, boundary value problem, "
                "bracket preservation", ok)


def test_criterion_8_nonuniform_expansion():
    w = build_bethe(RapiditySet.of([-0.7, 1.1]), Coupling(1.25))
    f = w.canonical
    ok = True
    scan = aop.nonuniformity_scan(f, 1.25, [10.0, 20.0, 40.0])
    for row in scan["rows"]:
        ok = ok and row["boundary_term"] >= row["floor"] * (1 - 1e-12)
        ok = ok and 0.05 <= row["boundary_term"] / row["retained_term"] <= 20.0
    rep = aop.asymptotic_expand(f, 1.25, [8.0, 16.0, 32.0, 64.0], 0.3, 1.3)
    for m, fitted in rep["fitted_decay_order"].items():
        ok = ok and abs(fitted - (m + 1)) <= 0.1 * (m + 1)
    orders = ", ".join(f"{rep['fitted_decay_order'][m]:.2f}" for m in range(4))
    _verdict(8, f"non-uniform boundary term and interior decay ({orders})", ok)


def test_criterion_9_determinism_and_runtime():
    cfg = build_config(seed=2024, quiet=True)
    started = time.perf_counter()
    first = run_suites(cfg).to_json()
    second = run_suites(cfg).to_json()
    elapsed = time.perf_counter() - started
    ok = first == second and elapsed < 600.0
    _verdict(9, f"byte-identical reports, two full runs in {elapsed:.1f}s", ok)
