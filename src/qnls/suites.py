"""Verification suites: each produces check records for the report.

Every suite draws its samples from a private deterministic generator
derived from the run seed, so identical configurations produce
byte-identical JSON reports.  A check that raises is recorded as a
failure with the exception text; the remaining checks still run.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from . import charges as ch
from . import integral_operator as aop
from . import lattice as lat
from . import transfer as tr
from .bethe import (BoxSpec, QUANTUM_NUMBER_CONVENTION, QuantumNumbers,
                    ground_state_quantum_numbers, perturbed_product_residual,
                    solve)
from .config import RunConfig
from .errors import (ConvergenceDomain, CutoffTooSmall, DegenerateRapidities,
                     DomainError, PoleAtRapidity, RMatrixPole, SizeLimit)
from .exact import EXACT, FLOAT, Field, exact
from .laurent import LaurentSeries
from .planewaves import (BetheWavefunction, Coupling, ExpPoly, RapiditySet,
                         build_bethe, symmetrized_plane_wave)
from .report import CheckRecord, VerificationReport

FLOAT_TOL = 1e-8
BOX_L = 2.0 * math.pi


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

def _suite_rng(cfg: RunConfig, name: str) -> random.Random:
    return random.Random(f"{cfg.seed}:{name}")


def sample_rapidities(rng: random.Random, n: int,
                      field: Field = EXACT) -> RapiditySet:
    values: set = set()
    while len(values) < n:
        values.add(Fraction(rng.randint(-18, 18), rng.randint(1, 6)))
    return RapiditySet.of(values, field)


def sample_coupling(rng: random.Random, field: Field = EXACT) -> Coupling:
    return Coupling(field.real(Fraction(rng.randint(1, 12), rng.randint(1, 4))))


def _state_scale(w: BetheWavefunction) -> float:
    """Magnitude scale of degree-<=4 operator outputs on the state; float
    residuals are judged relative to it."""
    return (w.canonical.max_coeff() * (1.0 + w.canonical.max_freq()) ** 4
            * (1.0 + abs(float(w.coupling.c))))


def _zero_check(field: Field, residuals) -> tuple:
    """(residual, tolerance, ok) of a check that plane-wave sums vanish,
    given as (sum, scale) pairs: under EXACT every sum must be empty,
    under FLOAT its largest coefficient over max(scale, 1) must be
    within FLOAT_TOL."""
    if field is EXACT:
        values = [poly.max_coeff() for poly, _ in residuals]
        ok = all(v == 0.0 for v in values)
        return ("exact-zero" if ok else max(values)), None, ok
    values = [poly.max_coeff() / max(scale, 1.0) for poly, scale in residuals]
    return max([0.0, *values]), FLOAT_TOL, all(v <= FLOAT_TOL for v in values)


def _record(report: VerificationReport, check_id: str, group: str, anchor: str,
            params: dict, fn):
    """Run one check; exceptions become failures, never aborts."""
    try:
        residual, tolerance, ok, detail = fn()
        verdict = "pass" if ok else "fail"
    except Exception as err:  # noqa: BLE001 - report and continue
        residual, tolerance, detail = None, None, f"{type(err).__name__}: {err}"
        verdict = "fail"
    report.add(CheckRecord(check_id, group, anchor, params, residual,
                           tolerance, verdict, detail))


def _expect_raise(exc_type, fn):
    def runner():
        try:
            fn()
        except exc_type:
            return None, None, True, f"raised {exc_type.__name__}"
        return None, None, False, f"{exc_type.__name__} not raised"
    return runner


# ----------------------------------------------------------------------
# Wavefunction algebra
# ----------------------------------------------------------------------

def run_waves_suite(cfg: RunConfig) -> list:
    rng = _suite_rng(cfg, "waves")
    field = EXACT if cfg.mode == "exact" else FLOAT
    report = VerificationReport(cfg.mode, cfg.seed)
    group = "wavefunction-algebra"

    for n in range(2, 6):
        def continuity(n=n):
            def residuals():
                for _ in range(3):
                    w = build_bethe(sample_rapidities(rng, n, field),
                                    sample_coupling(rng, field))
                    scale = _state_scale(w)
                    for j in range(1, n):
                        perm = list(range(n))
                        perm[j - 1], perm[j] = perm[j], perm[j - 1]
                        yield (w.canonical.restrict_to_boundary(j)
                               - w.region_form(perm).restrict_to_boundary(j)), scale
            return *_zero_check(field, residuals()), ""
        _record(report, f"waves.continuity.n{n}", group,
                "symmetric-extension-continuity", {"n": n}, continuity)

    def permutation_invariance():
        w = build_bethe(sample_rapidities(rng, 3, FLOAT),
                        sample_coupling(rng, FLOAT))
        worst = 0.0
        for _ in range(20):
            pt = [rng.uniform(-2, 2) for _ in range(3)]
            ref = w.evaluate(pt)
            shuffled = pt[:]
            rng.shuffle(shuffled)
            worst = max(worst, abs(w.evaluate(shuffled) - ref))
        return worst, 1e-12, worst <= 1e-12, ""
    _record(report, "waves.evaluate-symmetry", group,
            "symmetric-extension-invariance", {"n": 3}, permutation_invariance)

    def derivative_algebra():
        w = build_bethe(sample_rapidities(rng, 3), sample_coupling(rng))
        p = w.canonical
        mixed = p.differentiate((1, 0, 0)).differentiate((0, 1, 0))
        swapped = p.differentiate((0, 1, 0)).differentiate((1, 0, 0))
        combo = (p + p.scale(exact(2, 1))).differentiate((1, 1, 0)) \
            - p.differentiate((1, 1, 0)).scale(exact(3, 1))
        ok = (mixed - swapped).is_empty() and combo.is_empty()
        return "exact-zero" if ok else 1.0, None, ok, ""
    _record(report, "waves.derivative-algebra", group,
            "derivative-commutation-linearity", {"n": 3}, derivative_algebra)

    def term_count():
        w = build_bethe(sample_rapidities(rng, 4, field),
                        sample_coupling(rng, field))
        ok = w.canonical.term_count() <= math.factorial(4)
        return float(w.canonical.term_count()), float(math.factorial(4)), ok, ""
    _record(report, "waves.term-count", group, "term-count-bound",
            {"n": 4}, term_count)

    def roundtrip():
        w = build_bethe(sample_rapidities(rng, 3, field),
                        sample_coupling(rng, field))
        back = ExpPoly.from_json_dict(w.canonical.to_json_dict(), field)
        return *_zero_check(field, [(back - w.canonical, 1.0)]), ""
    _record(report, "waves.serialization-roundtrip", group,
            "json-document-roundtrip", {"n": 3}, roundtrip)

    _record(report, "waves.degenerate-error", group, "input-validation",
            {}, _expect_raise(DegenerateRapidities,
                              lambda: RapiditySet.of([1, 1, 2])))
    _record(report, "waves.size-limit", group, "input-validation",
            {}, _expect_raise(SizeLimit, lambda: build_bethe(
                RapiditySet.of(list(range(9))), Coupling(1))))
    return report.checks


# ----------------------------------------------------------------------
# Conserved charges
# ----------------------------------------------------------------------

def run_charges_suite(cfg: RunConfig) -> list:
    rng = _suite_rng(cfg, "charges")
    field = EXACT if cfg.mode == "exact" else FLOAT
    report = VerificationReport(cfg.mode, cfg.seed)
    group = "conserved-charges"

    for n in range(1, 5):
        def identities(n=n):
            def residuals():
                for _ in range(20):
                    w = build_bethe(sample_rapidities(rng, n, field),
                                    sample_coupling(rng, field))
                    scale = _state_scale(w)
                    for name, spec in ch.CHARGES.items():
                        if n >= spec.min_particles():
                            yield ch.interior_eigen_residual(name, w), scale
                    for res in ch.all_boundary_residuals(w).values():
                        yield res, scale
            return *_zero_check(field, residuals()), \
                "interior + boundary identities, 20 sampled states"
        _record(report, f"charges.identities.n{n}", group,
                "eigen-and-boundary-identities", {"n": n, "samples": 20},
                identities)

    def negative_control():
        raps = sample_rapidities(rng, 3)
        ctrl = symmetrized_plane_wave(raps)
        res = ch.boundary_residual_h2(ctrl, Fraction(1), 1)
        res3 = ch.boundary_residual_j3(
            ExpPoly.from_terms(3, [(1, tuple(raps.values))], EXACT), Fraction(1), 1)
        ok = (not res.is_empty()) and (not res3.is_empty())
        return None, None, ok, "generic symmetric functions violate the brackets"
    _record(report, "charges.negative-control", group,
            "boundary-bracket-negative-control", {"n": 3}, negative_control)

    def compositions():
        ok = True
        for _ in range(100):
            n = rng.randint(1, 6)
            rep = ch.composition_identity_check(sample_rapidities(rng, n))
            ok = ok and rep["ok"]
        return "exact-zero" if ok else 1.0, None, ok, \
            "ladder compositions and Newton identities, 100 samples"
    _record(report, "charges.compositions", group,
            "charge-ladder-composition", {"samples": 100, "n_max": 6},
            compositions)

    def defect_two():
        w = build_bethe(RapiditySet.of([1.0, 2.0]), Coupling(0.5))
        eps = [2.0 ** (-m) for m in range(2, 13)]
        scan = ch.g4_defect_scan(w, eps, BOX_L)
        slope = ch.fit_loglog_slope(scan)
        _, rem = ch.one_over_eps_remainders(scan)
        small = max(abs(r) for r in rem[:5])
        large = max(abs(r) for r in rem[5:])
        bounded = small <= 2.0 * max(large, 1.0)
        ok = abs(slope + 1.0) <= 0.02 and bounded
        return abs(slope + 1.0), 0.02, ok, f"slope={slope:.4f}"
    _record(report, "charges.quartic-defect.n2", group,
            "squared-delta-divergence", {"n": 2, "c": 0.5}, defect_two)

    def defect_two_scalings():
        w = build_bethe(RapiditySet.of([1.0, 2.0]), Coupling(1.0))
        d8 = ch.g4_defect_scan(w, [2.0 ** -8], BOX_L)[0][1]
        d9 = ch.g4_defect_scan(w, [2.0 ** -9], BOX_L)[0][1]
        halving = d9 / d8
        w_small = build_bethe(RapiditySet.of([1.0, 2.0]), Coupling(1e-3))
        ratio = ch.g4_defect_scan(w_small, [2.0 ** -6], BOX_L)[0][1] \
            / ch.g4_defect_scan(w, [2.0 ** -6], BOX_L)[0][1]
        ok = abs(halving - 2.0) <= 0.1 and 0.5e-6 <= ratio <= 1.5e-6
        return abs(halving - 2.0), 0.1, ok, \
            f"halving={halving:.4f}, coupling-square ratio={ratio:.3e}"
    _record(report, "charges.quartic-defect.scalings", group,
            "squared-delta-divergence", {"n": 2}, defect_two_scalings)

    def defect_three():
        w = build_bethe(RapiditySet.of([0.5, 1.5, 3.0]), Coupling(1.0))
        eps = [2.0 ** (-m) for m in range(3, 8)]
        scan = ch.g4_defect_scan(w, eps, BOX_L)
        slope = ch.fit_loglog_slope(scan)
        A, rem = ch.one_over_eps_remainders(scan, n_fit=3)
        small = max(abs(r) for r in rem[:3])
        bounded = small <= 0.05 * A / eps[-1]
        ok = abs(slope + 1.0) <= 0.05 and bounded
        return abs(slope + 1.0), 0.05, ok, \
            f"slope={slope:.4f}; finite cross term retained"
    _record(report, "charges.quartic-defect.n3", group,
            "squared-delta-divergence", {"n": 3, "c": 1.0}, defect_three)

    def overlaps():
        # same total momentum, so the matrix element is not killed by
        # translation invariance
        box = BoxSpec(BOX_L, 1.0, 2)
        sa = solve(box, ground_state_quantum_numbers(2))
        sb = solve(box, QuantumNumbers.of([Fraction(-3, 2), Fraction(3, 2)]))
        wa = build_bethe(sa.rapidities, Coupling(1.0))
        wb = build_bethe(sb.rapidities, Coupling(1.0))
        diag = ch.normalized_pair_delta_overlap(wa, wa, BOX_L)
        off = ch.normalized_pair_delta_overlap(wa, wb, BOX_L)
        st = solve(BoxSpec(BOX_L, 1e6, 2), ground_state_quantum_numbers(2))
        wt = build_bethe(st.rapidities, Coupling(1e6))
        ferm = ch.normalized_pair_delta_overlap(wt, wt, BOX_L)
        ok = (diag.real > 0 and abs(diag.imag) < 1e-9
              and abs(off) > 1e-6 and abs(ferm) < 1e-6)
        return abs(ferm), 1e-6, ok, \
            f"diag={diag.real:.4f}, |off-diag|={abs(off):.3e}"
    _record(report, "charges.pair-delta-overlap", group,
            "pair-contact-operator-matrix-elements", {"n": 2}, overlaps)
    return report.checks


# ----------------------------------------------------------------------
# Finite-box spectrum
# ----------------------------------------------------------------------

def run_bethe_suite(cfg: RunConfig) -> list:
    rng = _suite_rng(cfg, "bethe")
    report = VerificationReport(cfg.mode, cfg.seed)
    group = "finite-box-spectrum"

    def product_grid():
        worst = 0.0
        for n in range(1, 6):
            for c in (0.1, 1.0, 10.0, 1e4):
                box = BoxSpec(BOX_L, c, n)
                sol = solve(box, ground_state_quantum_numbers(n))
                worst = max(worst, sol.residual_product)
        return worst, 1e-10, worst < 1e-10, ""
    _record(report, "bethe.product-residual-grid", group,
            "periodicity-product-equations", {"n_max": 5}, product_grid)

    def tonks():
        c = 1e4
        worst = 0.0
        for n in range(1, 6):
            sol = solve(BoxSpec(BOX_L, c, n), ground_state_quantum_numbers(n))
            for k, I in zip(sol.rapidities.values, sol.quantum_numbers.I):
                worst = max(worst, abs(k - 2.0 * math.pi * float(I) / BOX_L))
        return worst, 5.0 / c, worst <= 5.0 / c, ""
    _record(report, "bethe.impenetrable-limit", group,
            "free-fermion-momenta-limit", {"c": 1e4}, tonks)

    def single_particle():
        sol = solve(BoxSpec(BOX_L, 1.0, 1), QuantumNumbers.of([2]))
        err = abs(sol.rapidities.values[0] - 2.0 * 2.0 * math.pi / BOX_L)
        return err, 1e-14, err <= 1e-14, ""
    _record(report, "bethe.single-particle-exact", group,
            "empty-product-case", {"n": 1}, single_particle)

    def shift_and_parity():
        base = solve(BoxSpec(BOX_L, 1.3, 3), ground_state_quantum_numbers(3))
        shifted = solve(BoxSpec(BOX_L, 1.3, 3), QuantumNumbers.of([1, 2, 3]))
        k0 = np.array([float(v) for v in base.rapidities.values])
        k1 = np.array([float(v) for v in shifted.rapidities.values])
        shift_err = float(np.max(np.abs(k1 - k0 - 2.0 * math.pi * 2 / BOX_L)))
        minus = solve(BoxSpec(BOX_L, 1.3, 3), QuantumNumbers.of([-3, -2, -1]))
        km = np.array([float(v) for v in minus.rapidities.values])
        parity_err = float(np.max(np.abs(km + k1[::-1])))
        worst = max(shift_err, parity_err)
        return worst, 1e-12, worst <= 1e-12, ""
    _record(report, "bethe.shift-and-parity", group,
            "quantum-number-covariance", {"n": 3}, shift_and_parity)

    def monotonicity():
        ok = True
        for _ in range(5):
            n = rng.randint(2, 4)
            base_I = sorted(rng.sample(range(-6, 7), n))
            parity = Fraction(n - 1, 2)
            base_I = [Fraction(i) + (parity - int(parity)) for i in base_I]
            slot = rng.randrange(n)
            bumped = list(base_I)
            bumped[slot] += 1
            if any(a >= b for a, b in zip(bumped, bumped[1:])):
                continue
            s0 = solve(BoxSpec(BOX_L, 2.0, n), QuantumNumbers.of(base_I))
            s1 = solve(BoxSpec(BOX_L, 2.0, n), QuantumNumbers.of(bumped))
            ok = ok and (s1.rapidities.values[slot] > s0.rapidities.values[slot])
        return None, None, ok, "roots increase with their quantum number"
    _record(report, "bethe.monotonicity", group,
            "root-monotonicity", {}, monotonicity)

    def jacobian_pd():
        worst = math.inf
        for n in range(1, 6):
            sol = solve(BoxSpec(BOX_L, 0.7, n), ground_state_quantum_numbers(n))
            worst = min(worst, sol.jacobian_min_eigenvalue)
        return worst, 0.0, worst > 0.0, "minimum Jacobian eigenvalue over grid"
    _record(report, "bethe.jacobian-positive", group,
            "log-form-jacobian-definiteness", {}, jacobian_pd)

    def small_coupling():
        sol = solve(BoxSpec(BOX_L, 1e-3, 2), ground_state_quantum_numbers(2))
        return sol.residual_product, 1e-10, sol.residual_product < 1e-10, \
            f"iterations={sol.iterations}"
    _record(report, "bethe.near-free-limit", group,
            "small-coupling-convergence", {"c": 1e-3}, small_coupling)

    def perturbation_control():
        box = BoxSpec(BOX_L, 1.0, 3)
        sol = solve(box, ground_state_quantum_numbers(3))
        defect = perturbed_product_residual(sol, 1e-3)
        return defect, 1e-4, defect > 1e-4, "sensitivity of the product residual"
    _record(report, "bethe.perturbation-control", group,
            "product-residual-sensitivity", {"shift": 1e-3},
            perturbation_control)

    _record(report, "bethe.repulsive-domain", group, "input-validation", {},
            _expect_raise(DomainError, lambda: solve(
                BoxSpec(BOX_L, -1.0, 1), QuantumNumbers.of([0]))))
    return report.checks


# ----------------------------------------------------------------------
# Transfer expansion
# ----------------------------------------------------------------------

def run_transfer_suite(cfg: RunConfig) -> list:
    report = VerificationReport(cfg.mode, cfg.seed)
    group = "transfer-expansion"
    rng = _suite_rng(cfg, "transfer")

    # exact adjudication on a state where every documented slot is active
    raps = [Fraction(1), Fraction(2), Fraction(3)]
    coupl = Fraction(3, 2)
    result = tr.charge_coefficients_from_formulas(raps, coupl)
    for v in result.verdicts:
        report.add(CheckRecord(
            check_id=f"transfer.table.{v.source}.m{v.order}",
            group=group,
            anchor=f"coefficient-table:{v.source}",
            params={"source": v.source, "order": v.order,
                    "printed": f"{v.printed:.6g}", "oracle": f"{v.oracle:.6g}",
                    "n": 3, "c": "3/2"},
            residual=abs(v.printed - v.oracle),
            tolerance=0.0,
            verdict=v.verdict,
            detail="" if v.match else "printed value differs from product oracle",
        ))

    def documented_slots():
        flagged = {(v.source, v.order) for v in result.verdicts
                   if v.verdict == "expected-mismatch"}
        ok = flagged == set(tr.EXPECTED_MISMATCHES) \
            and not result.has_unexpected_mismatch()
        return None, None, ok, f"flagged slots: {sorted(flagged)}"
    _record(report, "transfer.adjudication-complete", group,
            "coefficient-adjudication-summary", {"n": 3}, documented_slots)

    def alternative_reading():
        bad_orders = [v.order for v in result.h1_alternative
                      if v.source == "charge_constants" and v.verdict != "pass"]
        ok = 2 in bad_orders
        return None, None, ok, \
            "plain-momentum substitution fails from order 2 on"
    _record(report, "transfer.h1-substitution", group,
            "charge-symbol-reading", {}, alternative_reading)

    def solved_states():
        ok = True
        for n in range(1, 5):
            for qn in (ground_state_quantum_numbers(n), _skewed_numbers(n)):
                sol = solve(BoxSpec(BOX_L, 1.7, n), qn)
                ks = [float(v) for v in sol.rapidities.values]
                res = tr.charge_coefficients_from_formulas(ks, 1.7)
                ok = ok and not res.has_unexpected_mismatch()
                table = res.verdict_table()["charge_constants"]
                ok = ok and table[1] == "pass" and table[2] == "pass"
        return None, None, ok, "constants at orders 1,2 match on solved states"
    _record(report, "transfer.solved-states", group,
            "adjudication-on-solved-states", {"n_max": 4, "c": 1.7},
            solved_states)

    def roundtrip():
        vals = [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                for _ in range(3)]
        series = tr.asymptotic_product_series(vals, Fraction(2, 3))
        ok = series.log().exp() == series
        return "exact-zero" if ok else 1.0, None, ok, ""
    _record(report, "transfer.log-exp-roundtrip", group,
            "series-log-exp-inverse", {"order": tr.DEFAULT_ORDER}, roundtrip)

    def scalar_log():
        k, c = Fraction(2, 3), Fraction(5, 4)
        series = tr.asymptotic_product_series([k], c)
        direct = _direct_scalar_log(k, c, series.order)
        ok = series.log() == direct
        return "exact-zero" if ok else series.log().max_abs_diff(direct), \
            None, ok, "log recurrence vs power-accumulation expansion"
    _record(report, "transfer.scalar-log-oracle", group,
            "single-factor-log-expansion", {}, scalar_log)

    def permutation_invariance():
        vals = [Fraction(-1), Fraction(1, 2), Fraction(3)]
        a = tr.asymptotic_product_series(vals, Fraction(1, 2))
        b = tr.asymptotic_product_series(list(reversed(vals)), Fraction(1, 2))
        ok = a == b
        return "exact-zero" if ok else a.max_abs_diff(b), None, ok, ""
    _record(report, "transfer.symmetric-in-rapidities", group,
            "series-symmetry", {}, permutation_invariance)

    def power_sum_dependence():
        a = tr.asymptotic_product_series([1, -1, 8, -8], Fraction(2))
        b = tr.asymptotic_product_series([4, -4, 7, -7], Fraction(2))
        same = all(a.coefficient(m) == b.coefficient(m) for m in range(1, 5))
        p4a = sum(k ** 4 for k in (1, -1, 8, -8))
        p4b = sum(k ** 4 for k in (4, -4, 7, -7))
        ok = same and p4a != p4b
        return "exact-zero" if ok else 1.0, None, ok, \
            "orders 1..4 depend only on the first three power sums"
    _record(report, "transfer.power-sum-dependence", group,
            "commuting-constant-content", {}, power_sum_dependence)

    def remainder_bounds():
        ok = True
        worst = 0.0
        for n in range(1, 5):
            sol = solve(BoxSpec(BOX_L, 1.0, n), ground_state_quantum_numbers(n))
            ks = [float(v) for v in sol.rapidities.values]
            rep = tr.remainder_bound_check(ks, 1.0, BOX_L)
            ok = ok and rep["ok"]
            worst = max(worst, rep["worst_ratio"])
        return worst, 1.0, ok, "truncated series vs direct evaluation"
    _record(report, "transfer.remainder-bound", group,
            "asymptotic-remainder-bound", {"order": tr.DEFAULT_ORDER},
            remainder_bounds)

    _record(report, "transfer.pole-guard", group, "input-validation", {},
            _expect_raise(PoleAtRapidity,
                          lambda: tr.theta(1.0, [1.0], 1.0, BOX_L)))
    return report.checks


def _skewed_numbers(n: int) -> QuantumNumbers:
    parity = Fraction(n - 1, 2)
    start = parity - int(parity)  # 0 or 1/2
    return QuantumNumbers.of([start + m for m in range(n)])


def _direct_scalar_log(k: Fraction, c: Fraction, order: int) -> LaurentSeries:
    """log(1 - ic/(lam-k)) by accumulating powers of the off-unit part."""
    base = tr.asymptotic_product_series([k], c)
    u = base - LaurentSeries.one(order, EXACT)
    total = LaurentSeries.from_coeffs([0] * (order + 1), EXACT)
    power = LaurentSeries.one(order, EXACT)
    for m in range(1, order + 1):
        power = power * u
        total = total + power.scale(Fraction((-1) ** (m + 1), m))
    return total


# ----------------------------------------------------------------------
# Lattice integrability
# ----------------------------------------------------------------------

def run_lattice_suite(cfg: RunConfig) -> list:
    rng = _suite_rng(cfg, "lattice")
    report = VerificationReport(cfg.mode, cfg.seed)
    group = "lattice-integrability"

    orderings = set()

    def exchange_grid():
        spec = lat.LatticeSpec(1, 4, 0.3, 1.3)
        worst = 0.0
        for _ in range(25):
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            mu = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(lam - mu) < 1e-3:
                mu += 0.5
            res = lat.rtt_residual(lam, mu, spec)
            worst = max(worst, res["residual"])
            orderings.add(res["ordering"])
        ok = worst < 1e-12 and orderings == {"lam_mu"}
        return worst, 1e-12, ok, f"vanishing ordering: {sorted(orderings)}"
    _record(report, "lattice.exchange-relation", group,
            "intertwiner-exchange-relation", {"sites": 1, "cutoff": 4,
                                              "pairs": 25}, exchange_grid)

    def exchange_trivial():
        res = lat.rtt_residual(0.4, 1.1, lat.LatticeSpec(2, 1, 0.3, 1.3))
        ok = res["residual"] == 0.0
        return res["residual"], 0.0, ok, \
            "cutoff 1: no protected occupations, vacuous restriction"
    _record(report, "lattice.exchange-trivial-cutoff", group,
            "intertwiner-exchange-relation", {"cutoff": 1}, exchange_trivial)

    def commuting_family():
        worst = 0.0
        for M in (2, 3, 4):
            for n_sector in (0, 1, 2, 3):
                spec = lat.LatticeSpec(M, n_sector + 2, 0.4, 1.1)
                for _ in range(3):
                    lam = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
                    mu = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
                    worst = max(worst, lat.tau_commutator_norm(
                        lam, mu, spec, n_sector))
        return worst, 1e-12, worst < 1e-12, "M <= 4, sectors N <= 3, d = N+2"
    _record(report, "lattice.commuting-family", group,
            "transfer-commutativity", {"sites_max": 4, "sector_max": 3},
            commuting_family)

    def cutoff_controls():
        lam, mu = 0.3 + 0.4j, -1.1 + 0.2j
        clean = lat.tau_commutator_norm(lam, mu, lat.LatticeSpec(3, 4, 0.25, 1.0), 2)
        at_plus_one = lat.tau_commutator_norm(
            lam, mu, lat.LatticeSpec(3, 3, 0.25, 1.0), 2, enforce_cutoff=False)
        leaking = lat.tau_commutator_norm(
            lam, mu, lat.LatticeSpec(3, 3, 0.25, 1.0), 3, enforce_cutoff=False)
        ok = clean < 1e-12 and leaking > 1e-6
        detail = (f"d=N+2: {clean:.2e}; d=N+1: {at_plus_one:.2e} "
                  f"(still exact: monomials touch each site once); "
                  f"d=N: {leaking:.2e} (truncation leakage)")
        return leaking, None, ok, detail
    _record(report, "lattice.cutoff-control", group,
            "truncation-leakage-control", {"sites": 3}, cutoff_controls)

    def conservation():
        worst = 0.0
        for _ in range(3):
            lam = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            worst = max(worst, lat.number_conservation_defect(
                lat.LatticeSpec(3, 3, 0.35, 1.2), lam))
        return worst, 0.0, worst == 0.0, "off-sector blocks exactly zero"
    _record(report, "lattice.number-conservation", group,
            "particle-number-conservation", {"sites": 3}, conservation)

    def adjoint_pairing():
        worst = 0.0
        for _ in range(3):
            worst = max(worst, lat.hermiticity_pairing_defect(
                lat.LatticeSpec(3, 4, 0.3, 1.0), rng.uniform(-2, 2)))
        return worst, 1e-12, worst <= 1e-12, "diagonal entries adjoint at real lam"
    _record(report, "lattice.adjoint-pairing", group,
            "monodromy-adjoint-pairing", {"sites": 3}, adjoint_pairing)

    def continuum():
        rep = lat.continuum_limit_rate(1.0, BOX_L, 0.9)
        ok = (rep["order_vacuum_normalized"] >= 1.0
              and rep["order_one_particle_normalized"] >= 1.0
              and rep["order_vacuum_raw"] >= 0.8
              and rep["order_one_particle_raw"] >= 0.8)
        detail = (f"raw orders {rep['order_vacuum_raw']:.2f}/"
                  f"{rep['order_one_particle_raw']:.2f} (per-site modulus factor); "
                  f"normalized {rep['order_vacuum_normalized']:.2f}/"
                  f"{rep['order_one_particle_normalized']:.2f}")
        return None, None, ok, detail
    _record(report, "lattice.continuum-rate", group,
            "continuum-limit-convergence",
            {"sites": list(lat.CONTINUUM_SITES)},
            continuum)

    def ordering_demo():
        rep = lat.normal_ordering_breakdown(lat.LatticeSpec(2, 3, 0.2, 1.5), 0.7)
        rate = lat.ordering_defect_rate(1.5, 3, 0.7)
        ok = (rep["one_site_difference"] == 0.0
              and rep["relative_difference"] > 0.0
              and 1.5 <= rate["order"] <= 2.5)
        detail = (f"one-site diff {rep['one_site_difference']:.1e}; two-site "
                  f"relative {rep['relative_difference']:.3e}; step-order "
                  f"{rate['order']:.2f}")
        return rep["relative_difference"], None, ok, detail
    _record(report, "lattice.ordering-breakdown", group,
            "classical-ordering-loss", {"sites": 2, "cutoff": 3},
            ordering_demo)

    _record(report, "lattice.pole-guard", group, "input-validation", {},
            _expect_raise(RMatrixPole, lambda: lat.rtt_residual(
                1.0, 1.0, lat.LatticeSpec(1, 3, 0.3, 1.0))))
    _record(report, "lattice.cutoff-guard", group, "input-validation", {},
            _expect_raise(CutoffTooSmall, lambda: lat.tau_commutator_norm(
                0.3, 1.1, lat.LatticeSpec(2, 3, 0.3, 1.0), 2)))
    _record(report, "lattice.size-guard", group, "input-validation", {},
            _expect_raise(SizeLimit, lambda: lat.monodromy(
                lat.LatticeSpec(10, 5, 0.1, 1.0), 0.5)))
    return report.checks


# ----------------------------------------------------------------------
# Integral operator
# ----------------------------------------------------------------------

def run_aop_suite(cfg: RunConfig) -> list:
    rng = _suite_rng(cfg, "aop")
    report = VerificationReport(cfg.mode, cfg.seed)
    group = "integral-operator"
    lam = aop.SpectralParameter(exact(Fraction(1, 3), Fraction(-2)))

    for n in (1, 2, 3):
        def diagonality(n=n):
            worst = 0.0
            ok = True
            for _ in range(3):
                w = build_bethe(sample_rapidities(rng, n),
                                sample_coupling(rng))
                _, residual = aop.eigenvalue_check(lam, w)
                worst = max(worst, residual)
                ok = ok and residual == 0.0
            return ("exact-zero" if ok else worst), 0.0, ok, ""
        _record(report, f"aop.diagonality.n{n}", group,
                "bethe-state-diagonality", {"n": n, "samples": 3}, diagonality)

    def numeric_cross_check():
        worst = 0.0
        lamc = 0.4 - 1.5j
        for n, pt in ((1, [0.3]), (2, [0.2, 0.9])):
            w = build_bethe(sample_rapidities(rng, n, FLOAT),
                            sample_coupling(rng, FLOAT))
            ana = complex(aop.apply_A(
                aop.SpectralParameter(lamc), w.canonical,
                float(w.coupling.c)).evaluate(np.array(pt)))
            num = aop.apply_A_numeric_point(lamc, w, pt)
            worst = max(worst, abs(ana - num) / max(abs(ana), 1.0))
        return worst, 1e-8, worst < 1e-8, "direct quadrature of the kernels"
    _record(report, "aop.numeric-cross-check", group,
            "quadrature-oracle", {"n_max": 2}, numeric_cross_check)

    def boundary_value_problem():
        ok = True
        for n in (1, 2, 3):
            w = build_bethe(sample_rapidities(rng, n),
                            sample_coupling(rng))
            g = aop.apply_A(lam, w.canonical, w.coupling.c)
            pde, boundary = aop.bvp_residual(lam, w.canonical, g, w.coupling.c)
            ok = ok and pde.is_empty() and all(b.is_empty() for b in boundary)
        return "exact-zero" if ok else 1.0, 0.0, ok, ""
    _record(report, "aop.boundary-value-problem", group,
            "intertwining-differential-relation", {"n_max": 3},
            boundary_value_problem)

    def bracket_preservation():
        ok = True
        for _ in range(10):
            wa = build_bethe(sample_rapidities(rng, 2),
                             sample_coupling(rng))
            wb = build_bethe(sample_rapidities(rng, 2), wa.coupling)
            combo = wa.canonical + wb.canonical.scale(
                exact(rng.randint(-3, 3), rng.randint(1, 3)))
            before = aop.pair_bracket_residual(combo, wa.coupling.c)
            g = aop.apply_A(lam, combo, wa.coupling.c)
            after = aop.pair_bracket_residual(g, wa.coupling.c)
            ok = ok and before == 0.0 and after == 0.0
        return "exact-zero" if ok else 1.0, 0.0, ok, \
            "10 non-eigenstate combinations with vanishing brackets"
    _record(report, "aop.bracket-preservation", group,
            "boundary-bracket-preservation", {"inputs": 10},
            bracket_preservation)

    def generic_bracket_equality():
        raps = sample_rapidities(rng, 2)
        f_poly = ExpPoly.from_terms(
            2, [(1, tuple(raps.values)), (1, tuple(reversed(raps.values)))], EXACT)
        c = Fraction(5, 4)
        g = aop.apply_A(lam, f_poly, c)
        _, boundary = aop.bvp_residual(lam, f_poly, g, c)
        nonzero = aop.pair_bracket_residual(f_poly, c) > 0
        ok = nonzero and all(b.is_empty() for b in boundary)
        return "exact-zero" if ok else 1.0, 0.0, ok, \
            "bracket carried over unchanged for a non-eigen input"
    _record(report, "aop.bracket-equality-generic", group,
            "boundary-bracket-preservation", {"n": 2},
            generic_bracket_equality)

    def linearity_and_identity():
        wa = build_bethe(sample_rapidities(rng, 2),
                         sample_coupling(rng))
        wb = build_bethe(sample_rapidities(rng, 2), wa.coupling)
        scale = exact(3, Fraction(1, 2))
        combo = wa.canonical + wb.canonical.scale(scale)
        c = wa.coupling.c
        lhs = aop.apply_A(lam, combo, c)
        rhs = aop.apply_A(lam, wa.canonical, c) \
            + aop.apply_A(lam, wb.canonical, c).scale(scale)
        ident = aop.apply_A(lam, wa.canonical, 0)
        ok = (lhs - rhs).is_empty() and (ident - wa.canonical).is_empty()
        return "exact-zero" if ok else 1.0, 0.0, ok, ""
    _record(report, "aop.linearity-and-free-limit", group,
            "operator-linearity", {}, linearity_and_identity)

    def eigenvalue_structure():
        w = build_bethe(sample_rapidities(rng, 2),
                        sample_coupling(rng))
        lam2 = aop.SpectralParameter(exact(Fraction(-3, 4), Fraction(-3)))
        e1 = aop.bethe_eigenvalue(lam, w.rapidities.values, w.coupling.c, EXACT)
        e2 = aop.bethe_eigenvalue(lam2, w.rapidities.values, w.coupling.c, EXACT)
        commute = (e1 * e2 - e2 * e1).is_zero()
        big = aop.bethe_eigenvalue(
            aop.SpectralParameter(complex(0, -1e6)),
            [float(v) for v in w.rapidities.values], float(w.coupling.c), FLOAT)
        far = abs(big - 1.0) <= 3.0 * float(w.coupling.c) * w.n / 1e6
        ok = commute and far
        return None, None, ok, "eigenvalues commute and tend to 1 at deep lam"
    _record(report, "aop.eigenvalue-structure", group,
            "commuting-eigenvalue-family", {}, eigenvalue_structure)

    def expansion_decay():
        w = build_bethe(RapiditySet.of([-0.7, 1.1]), Coupling(1.25))
        rep = aop.asymptotic_expand(w.canonical, 1.25, [8.0, 16.0, 32.0, 64.0],
                                    0.3, 1.3)
        fits = rep["fitted_decay_order"]
        ok = all(abs(fits[m] - (m + 1)) <= 0.1 * (m + 1) for m in range(4))
        return None, None, ok, \
            "decay orders " + ", ".join(f"{fits[m]:.2f}" for m in range(4))
    _record(report, "aop.expansion-decay", group,
            "interior-truncation-decay", {"orders": [0, 1, 2, 3]},
            expansion_decay)

    def nonuniform_boundary():
        w = build_bethe(RapiditySet.of([-0.7, 1.1]), Coupling(1.25))
        scan = aop.nonuniformity_scan(w.canonical, 1.25, [10.0, 20.0, 40.0])
        ok = True
        for r in scan["rows"]:
            ok = ok and r["boundary_term"] >= r["floor"] * (1 - 1e-12)
            ok = ok and 0.05 <= r["boundary_term"] / r["retained_term"] <= 20.0
            ok = ok and r["suppressed_at_10_over_t"] <= math.exp(-9.0) \
                * r["boundary_term"] * 1.001
            ok = ok and r["integrated_over_unit_separation"] \
                <= 2.0 * r["floor"] * math.e / r["t"]
        return None, None, ok, \
            "boundary term at separation 1/t matches the retained order"
    _record(report, "aop.nonuniform-expansion", group,
            "boundary-term-nonuniformity", {"t": [10, 20, 40]},
            nonuniform_boundary)

    _record(report, "aop.convergence-domain", group, "input-validation", {},
            _expect_raise(ConvergenceDomain,
                          lambda: aop.SpectralParameter(1.0 + 0.0j)))
    return report.checks


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------

SUITE_RUNNERS = {
    "waves": run_waves_suite,
    "charges": run_charges_suite,
    "bethe": run_bethe_suite,
    "transfer": run_transfer_suite,
    "lattice": run_lattice_suite,
    "aop": run_aop_suite,
}


def run_suites(cfg: RunConfig) -> VerificationReport:
    report = VerificationReport(cfg.mode, cfg.seed)
    report.conventions = {
        "quantum_numbers": QUANTUM_NUMBER_CONVENTION,
        "wavefunction_normalization":
            "plane-wave sums are unnormalized (no 1/sqrt(N!) factor)",
        "exchange_ordering":
            "R (T(lam) x T(mu)) = (T(mu) x T(lam)) R, fixed empirically",
        "charge_symbol_reading":
            "momentum charge carries eigenvalue i*p1; the plain-p1 reading "
            "fails the order-2 coefficient",
    }
    for name in cfg.suites:
        report.extend(SUITE_RUNNERS[name](cfg))
    return report
