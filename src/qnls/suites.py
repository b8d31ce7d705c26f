"""Verification suites: each returns a list of check records for the report.

Every suite draws its samples from a private deterministic generator
derived from the run seed, so identical configurations produce
byte-identical JSON reports.  Each check declares its comparison (a
``report.COMPARISONS`` key) where it is recorded; its closure returns
residual, tolerance, detail and, for conditions its numbers do not show,
a boolean, and ``report.judge`` derives the verdict from them.  A check
that raises is recorded as a failure with the exception text; the
remaining checks still run.
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
from .report import CheckRecord, VerificationReport, judge

FLOAT_TOL = 1e-8
BOX_L = 2.0 * math.pi
# the report group of each suite, the first part of its check ids
GROUPS = {"waves": "wavefunction-algebra", "charges": "conserved-charges",
          "bethe": "finite-box-spectrum", "transfer": "transfer-expansion",
          "lattice": "lattice-integrability", "aop": "integral-operator"}


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


def _state_scale(w: BetheWavefunction) -> float | None:
    """Magnitude scale of degree-<=4 operator outputs on the state; float
    residuals are judged relative to it.  None on an exact state, whose
    residuals ``_zero_check`` judges by their count of terms alone."""
    if w.exact:
        return None
    return (w.canonical.max_coeff() * (1.0 + w.canonical.max_freq()) ** 4
            * (1.0 + abs(float(w.coupling.c))))


def _record(records: list, check_id: str, anchor: str, params: dict,
            comparison: str, fn, expected: bool = False):
    """Run one check and append its record, judged under ``comparison``
    from what ``fn`` returns: (residual, tolerance, detail[, holds]).
    An exception is a failure with its text, never an abort."""
    try:
        residual, tolerance, detail, *holds = fn()
        verdict = judge(comparison, residual, tolerance, *holds,
                        expected=expected)
        if comparison == "exact-zero" and residual == 0:
            residual = "exact-zero"
    except Exception as err:  # noqa: BLE001 - report and continue
        residual, tolerance, detail = None, None, f"{type(err).__name__}: {err}"
        verdict = judge(comparison, residual, tolerance, False)
    records.append(CheckRecord(check_id, GROUPS[check_id.split(".")[0]], anchor,
                               params, residual, tolerance, verdict, detail,
                               comparison))


def _zero_check(records: list, field: Field, check_id: str, anchor: str,
                params: dict, residuals, detail: str = ""):
    """Record a check that the plane-wave sums of ``residuals()``, given
    as (sum, scale) pairs, vanish: under EXACT ``exact-zero`` on the count
    of terms left, under FLOAT ``<=`` FLOAT_TOL on the largest coefficient
    over max(scale, 1)."""
    def measure():
        if field is EXACT:
            return sum(p.term_count() for p, _ in residuals()), None, detail
        return float(np.max([p.max_coeff() / max(scale, 1.0)  # keeps a NaN
                             for p, scale in residuals()], initial=0.0)), \
            FLOAT_TOL, detail
    _record(records, check_id, anchor, params,
            "exact-zero" if field is EXACT else "<=", measure)


def _expect_raise(records: list, check_id: str, exc_type, fn):
    """Record an input-validation check that fn raises exc_type."""
    def runner():
        try:
            fn()
        except exc_type:
            return None, None, f"raised {exc_type.__name__}"
        raise AssertionError(f"{exc_type.__name__} not raised")
    _record(records, check_id, "input-validation", {}, "predicate", runner)


# ----------------------------------------------------------------------
# Wavefunction algebra
# ----------------------------------------------------------------------

def run_waves_suite(cfg: RunConfig) -> list:
    rng = _suite_rng(cfg, "waves")
    field = EXACT if cfg.mode == "exact" else FLOAT
    records = []

    for n in range(2, 6):
        def continuity(n=n):
            for _ in range(3):
                w = build_bethe(sample_rapidities(rng, n, field),
                                sample_coupling(rng, field))
                scale = _state_scale(w)
                for j in range(1, n):
                    perm = list(range(n))
                    perm[j - 1], perm[j] = perm[j], perm[j - 1]
                    yield (w.canonical.restrict_to_boundary(j)
                           - w.region_form(perm).restrict_to_boundary(j)), scale
        _zero_check(records, field, f"waves.continuity.n{n}",
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
        return worst, 1e-12, ""
    _record(records, "waves.evaluate-symmetry",
            "symmetric-extension-invariance", {"n": 3}, "<=",
            permutation_invariance)

    def derivative_algebra():
        w = build_bethe(sample_rapidities(rng, 3), sample_coupling(rng))
        p = w.canonical
        mixed = p.differentiate((1, 0, 0)).differentiate((0, 1, 0))
        swapped = p.differentiate((0, 1, 0)).differentiate((1, 0, 0))
        combo = (p + p.scale(exact(2, 1))).differentiate((1, 1, 0)) \
            - p.differentiate((1, 1, 0)).scale(exact(3, 1))
        return (mixed - swapped).term_count() + combo.term_count(), None, ""
    _record(records, "waves.derivative-algebra",
            "derivative-commutation-linearity", {"n": 3}, "exact-zero",
            derivative_algebra)

    def term_count():
        w = build_bethe(sample_rapidities(rng, 4, field),
                        sample_coupling(rng, field))
        return float(w.canonical.term_count()), float(math.factorial(4)), ""
    _record(records, "waves.term-count", "term-count-bound",
            {"n": 4}, "<=", term_count)

    def roundtrip():
        w = build_bethe(sample_rapidities(rng, 3, field),
                        sample_coupling(rng, field))
        back = ExpPoly.from_json_dict(w.canonical.to_json_dict(), field)
        yield back - w.canonical, 1.0
    _zero_check(records, field, "waves.serialization-roundtrip",
                "json-document-roundtrip", {"n": 3}, roundtrip)

    _expect_raise(records, "waves.degenerate-error",
                  DegenerateRapidities, lambda: RapiditySet.of([1, 1, 2]))
    _expect_raise(records, "waves.size-limit", SizeLimit,
                  lambda: build_bethe(RapiditySet.of(list(range(9))),
                                      Coupling(1)))
    return records


# ----------------------------------------------------------------------
# Conserved charges
# ----------------------------------------------------------------------

def run_charges_suite(cfg: RunConfig) -> list:
    rng = _suite_rng(cfg, "charges")
    field = EXACT if cfg.mode == "exact" else FLOAT
    records = []

    for n in range(1, 5):
        def identities(n=n):
            # the 20 states are drawn before any is built or checked, in
            # the order that one state at a time would draw them, since
            # neither draws; one call builds them, one tagged sum checks them
            drawn = [(sample_rapidities(rng, n, field),
                      sample_coupling(rng, field)) for _ in range(20)]
            states = build_bethe([r for r, _ in drawn], [c for _, c in drawn])
            scales = [_state_scale(w) for w in states]
            for name, spec in ch.CHARGES.items():
                if n >= spec.min_particles():
                    yield from zip(ch.interior_eigen_residual(name, states),
                                   scales)
            for brackets, scale in zip(ch.all_boundary_residuals(states),
                                       scales):
                for res in brackets.values():
                    yield res, scale
        _zero_check(records, field, f"charges.identities.n{n}",
                    "eigen-and-boundary-identities", {"n": n, "samples": 20},
                    identities,
                    "interior + boundary identities, 20 sampled states")

    def negative_control():
        raps = sample_rapidities(rng, 3)
        ctrl = symmetrized_plane_wave(raps)
        res = ch.boundary_residual_h2(ctrl, Fraction(1), 1)
        res3 = ch.boundary_residual_j3(
            ExpPoly.from_terms(3, [(1, tuple(raps.values))], EXACT), Fraction(1), 1)
        return None, None, "generic symmetric functions violate the brackets", \
            not res.is_empty() and not res3.is_empty()
    _record(records, "charges.negative-control",
            "boundary-bracket-negative-control", {"n": 3}, "predicate",
            negative_control)

    def compositions():
        failing = 0
        for _ in range(100):
            n = rng.randint(1, 6)
            failing += not ch.composition_identity_check(
                sample_rapidities(rng, n))["ok"]
        return failing, None, \
            "ladder compositions and Newton identities, 100 samples"
    _record(records, "charges.compositions", "charge-ladder-composition",
            {"samples": 100, "n_max": 6}, "exact-zero", compositions)

    def defect_two():
        w = build_bethe(RapiditySet.of([1.0, 2.0]), Coupling(0.5))
        eps = [2.0 ** (-m) for m in range(2, 13)]
        scan = ch.g4_defect_scan(w, eps, BOX_L)
        slope = ch.fit_loglog_slope(scan)
        _, rem = ch.one_over_eps_remainders(scan)
        small = max(abs(r) for r in rem[:5])
        large = max(abs(r) for r in rem[5:])
        return abs(slope + 1.0), 0.02, f"slope={slope:.4f}", \
            small <= 2.0 * max(large, 1.0)
    _record(records, "charges.quartic-defect.n2",
            "squared-delta-divergence", {"n": 2, "c": 0.5}, "<=", defect_two)

    def defect_two_scalings():
        w = build_bethe(RapiditySet.of([1.0, 2.0]), Coupling(1.0))
        d8 = ch.g4_defect_scan(w, [2.0 ** -8], BOX_L)[0][1]
        d9 = ch.g4_defect_scan(w, [2.0 ** -9], BOX_L)[0][1]
        halving = d9 / d8
        w_small = build_bethe(RapiditySet.of([1.0, 2.0]), Coupling(1e-3))
        ratio = ch.g4_defect_scan(w_small, [2.0 ** -6], BOX_L)[0][1] \
            / ch.g4_defect_scan(w, [2.0 ** -6], BOX_L)[0][1]
        return abs(halving - 2.0), 0.1, \
            f"halving={halving:.4f}, coupling-square ratio={ratio:.3e}", \
            0.5e-6 <= ratio <= 1.5e-6
    _record(records, "charges.quartic-defect.scalings",
            "squared-delta-divergence", {"n": 2}, "<=", defect_two_scalings)

    def defect_three():
        w = build_bethe(RapiditySet.of([0.5, 1.5, 3.0]), Coupling(1.0))
        eps = [2.0 ** (-m) for m in range(3, 8)]
        scan = ch.g4_defect_scan(w, eps, BOX_L)
        slope = ch.fit_loglog_slope(scan)
        A, rem = ch.one_over_eps_remainders(scan, n_fit=3)
        small = max(abs(r) for r in rem[:3])
        return abs(slope + 1.0), 0.05, \
            f"slope={slope:.4f}; finite cross term retained", \
            small <= 0.05 * A / eps[-1]
    _record(records, "charges.quartic-defect.n3",
            "squared-delta-divergence", {"n": 3, "c": 1.0}, "<=", defect_three)

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
        return abs(ferm), 1e-6, \
            f"diag={diag.real:.4f}, |off-diag|={abs(off):.3e}", \
            diag.real > 0 and abs(diag.imag) < 1e-9 and abs(off) > 1e-6
    _record(records, "charges.pair-delta-overlap",
            "pair-contact-operator-matrix-elements", {"n": 2}, "<", overlaps)
    return records


# ----------------------------------------------------------------------
# Finite-box spectrum
# ----------------------------------------------------------------------

def run_bethe_suite(cfg: RunConfig) -> list:
    rng = _suite_rng(cfg, "bethe")
    records = []

    def product_grid():
        worst = 0.0
        for n in range(1, 6):
            for c in (0.1, 1.0, 10.0, 1e4):
                box = BoxSpec(BOX_L, c, n)
                sol = solve(box, ground_state_quantum_numbers(n))
                worst = max(worst, sol.residual_product)
        return worst, 1e-10, ""
    _record(records, "bethe.product-residual-grid",
            "periodicity-product-equations", {"n_max": 5}, "<", product_grid)

    def tonks():
        c = 1e4
        worst = 0.0
        for n in range(1, 6):
            sol = solve(BoxSpec(BOX_L, c, n), ground_state_quantum_numbers(n))
            for k, I in zip(sol.rapidities.values, sol.quantum_numbers.I):
                worst = max(worst, abs(k - 2.0 * math.pi * float(I) / BOX_L))
        return worst, 5.0 / c, ""
    _record(records, "bethe.impenetrable-limit",
            "free-fermion-momenta-limit", {"c": 1e4}, "<=", tonks)

    def single_particle():
        sol = solve(BoxSpec(BOX_L, 1.0, 1), QuantumNumbers.of([2]))
        err = abs(sol.rapidities.values[0] - 2.0 * 2.0 * math.pi / BOX_L)
        return err, 1e-14, ""
    _record(records, "bethe.single-particle-exact",
            "empty-product-case", {"n": 1}, "<=", single_particle)

    def shift_and_parity():
        base = solve(BoxSpec(BOX_L, 1.3, 3), ground_state_quantum_numbers(3))
        shifted = solve(BoxSpec(BOX_L, 1.3, 3), QuantumNumbers.of([1, 2, 3]))
        k0 = np.array([float(v) for v in base.rapidities.values])
        k1 = np.array([float(v) for v in shifted.rapidities.values])
        shift_err = float(np.max(np.abs(k1 - k0 - 2.0 * math.pi * 2 / BOX_L)))
        minus = solve(BoxSpec(BOX_L, 1.3, 3), QuantumNumbers.of([-3, -2, -1]))
        km = np.array([float(v) for v in minus.rapidities.values])
        parity_err = float(np.max(np.abs(km + k1[::-1])))
        return max(shift_err, parity_err), 1e-12, ""
    _record(records, "bethe.shift-and-parity",
            "quantum-number-covariance", {"n": 3}, "<=", shift_and_parity)

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
        return None, None, "roots increase with their quantum number", ok
    _record(records, "bethe.monotonicity",
            "root-monotonicity", {}, "predicate", monotonicity)

    def jacobian_pd():
        worst = math.inf
        for n in range(1, 6):
            sol = solve(BoxSpec(BOX_L, 0.7, n), ground_state_quantum_numbers(n))
            worst = min(worst, sol.jacobian_min_eigenvalue)
        return worst, 0.0, "minimum Jacobian eigenvalue over grid"
    _record(records, "bethe.jacobian-positive",
            "log-form-jacobian-definiteness", {}, ">", jacobian_pd)

    def small_coupling():
        sol = solve(BoxSpec(BOX_L, 1e-3, 2), ground_state_quantum_numbers(2))
        return sol.residual_product, 1e-10, f"iterations={sol.iterations}"
    _record(records, "bethe.near-free-limit",
            "small-coupling-convergence", {"c": 1e-3}, "<", small_coupling)

    def perturbation_control():
        box = BoxSpec(BOX_L, 1.0, 3)
        sol = solve(box, ground_state_quantum_numbers(3))
        defect = perturbed_product_residual(sol, 1e-3)
        return defect, 1e-4, "sensitivity of the product residual"
    _record(records, "bethe.perturbation-control",
            "product-residual-sensitivity", {"shift": 1e-3}, ">",
            perturbation_control)

    _expect_raise(records, "bethe.repulsive-domain", DomainError,
                  lambda: solve(BoxSpec(BOX_L, -1.0, 1), QuantumNumbers.of([0])))
    return records


# ----------------------------------------------------------------------
# Transfer expansion
# ----------------------------------------------------------------------

def run_transfer_suite(cfg: RunConfig) -> list:
    records = []
    rng = _suite_rng(cfg, "transfer")

    # exact adjudication on a state where every documented slot is active
    raps = [Fraction(1), Fraction(2), Fraction(3)]
    coupl = Fraction(3, 2)
    result = tr.charge_coefficients_from_formulas(raps, coupl)
    for v in result.verdicts:
        def table_row(v=v):
            # exact values: 0.0 exactly when printed and oracle are equal
            diff = abs(complex(v.printed - v.oracle))
            return diff, 0.0, \
                "printed value differs from product oracle" if diff else ""
        _record(records, f"transfer.table.{v.source}.m{v.order}",
                f"coefficient-table:{v.source}",
                {"source": v.source, "order": v.order,
                 "printed": f"{complex(v.printed):.6g}",
                 "oracle": f"{complex(v.oracle):.6g}", "n": 3, "c": "3/2"},
                "<=", table_row,
                expected=(v.source, v.order) in tr.EXPECTED_MISMATCHES)

    def documented_slots():
        flagged = {(v.source, v.order) for v in result.verdicts
                   if v.verdict == "expected-mismatch"}
        return None, None, f"flagged slots: {sorted(flagged)}", \
            flagged == set(tr.EXPECTED_MISMATCHES) \
            and not result.has_unexpected_mismatch()
    _record(records, "transfer.adjudication-complete",
            "coefficient-adjudication-summary", {"n": 3}, "predicate",
            documented_slots)

    def alternative_reading():
        bad_orders = [v.order for v in result.h1_alternative
                      if v.source == "charge_constants" and v.verdict != "pass"]
        return None, None, \
            "plain-momentum substitution fails from order 2 on", 2 in bad_orders
    _record(records, "transfer.h1-substitution",
            "charge-symbol-reading", {}, "predicate", alternative_reading)

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
        return None, None, "constants at orders 1,2 match on solved states", ok
    _record(records, "transfer.solved-states", "adjudication-on-solved-states",
            {"n_max": 4, "c": 1.7}, "predicate", solved_states)

    def roundtrip():
        vals = [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                for _ in range(3)]
        series = tr.asymptotic_product_series(vals, Fraction(2, 3))
        return series.log().exp().differing_coefficients(series), None, ""
    _record(records, "transfer.log-exp-roundtrip", "series-log-exp-inverse",
            {"order": tr.DEFAULT_ORDER}, "exact-zero", roundtrip)

    def scalar_log():
        k, c = Fraction(2, 3), Fraction(5, 4)
        series = tr.asymptotic_product_series([k], c)
        direct = _direct_scalar_log(k, c, series.order)
        return series.log().differing_coefficients(direct), None, \
            "log recurrence vs power-accumulation expansion"
    _record(records, "transfer.scalar-log-oracle",
            "single-factor-log-expansion", {}, "exact-zero", scalar_log)

    def permutation_invariance():
        vals = [Fraction(-1), Fraction(1, 2), Fraction(3)]
        a = tr.asymptotic_product_series(vals, Fraction(1, 2))
        b = tr.asymptotic_product_series(list(reversed(vals)), Fraction(1, 2))
        return a.differing_coefficients(b), None, ""
    _record(records, "transfer.symmetric-in-rapidities",
            "series-symmetry", {}, "exact-zero", permutation_invariance)

    def power_sum_dependence():
        # two states with equal power sums p1..p3 and different p4
        a = tr.asymptotic_product_series([1, -1, 8, -8], Fraction(2))
        b = tr.asymptotic_product_series([4, -4, 7, -7], Fraction(2))
        p4a = sum(k ** 4 for k in (1, -1, 8, -8))
        p4b = sum(k ** 4 for k in (4, -4, 7, -7))
        apart = sum(a.coefficient(m) != b.coefficient(m) for m in range(1, 5))
        return apart + (p4a == p4b), None, \
            "orders 1..4 depend only on the first three power sums"
    _record(records, "transfer.power-sum-dependence",
            "commuting-constant-content", {}, "exact-zero",
            power_sum_dependence)

    def remainder_bounds():
        ratios = []
        for n in range(1, 5):
            sol = solve(BoxSpec(BOX_L, 1.0, n), ground_state_quantum_numbers(n))
            ks = [float(v) for v in sol.rapidities.values]
            ratios.append(tr.remainder_bound_check(ks, 1.0, BOX_L))
        return float(np.max(ratios)), 1.0, "truncated series vs direct evaluation"
    _record(records, "transfer.remainder-bound", "asymptotic-remainder-bound",
            {"order": tr.DEFAULT_ORDER}, "<=", remainder_bounds)

    _expect_raise(records, "transfer.pole-guard", PoleAtRapidity,
                  lambda: tr.theta(1.0, [1.0], 1.0, BOX_L))
    return records


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
    records = []

    def exchange_grid():
        spec = lat.LatticeSpec(1, 4, 0.3, 1.3)
        # the 25 pairs are drawn first, in the order of one call per
        # pair, and checked in one call
        lams, mus = [], []
        for _ in range(25):
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            mu = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(lam - mu) < 1e-3:
                mu += 0.5
            lams.append(lam)
            mus.append(mu)
        results = lat.rtt_residual(lams, mus, spec)
        worst = max(0.0, *(res["residual"] for res in results))
        orderings = {res["ordering"] for res in results}
        return worst, lat.IDENTITY_TOL, \
            f"vanishing ordering: {sorted(orderings)}", orderings == {"lam_mu"}
    _record(records, "lattice.exchange-relation",
            "intertwiner-exchange-relation",
            {"sites": 1, "cutoff": 4, "pairs": 25}, "<", exchange_grid)

    def exchange_trivial():
        res = lat.rtt_residual(0.4, 1.1, lat.LatticeSpec(2, 1, 0.3, 1.3))
        return res["residual"], 0.0, \
            "cutoff 1: no protected occupations, vacuous restriction"
    _record(records, "lattice.exchange-trivial-cutoff",
            "intertwiner-exchange-relation", {"cutoff": 1}, "<=",
            exchange_trivial)

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
        return worst, lat.IDENTITY_TOL, "M <= 4, sectors N <= 3, d = N+2"
    _record(records, "lattice.commuting-family", "transfer-commutativity",
            {"sites_max": 4, "sector_max": 3}, "<", commuting_family)

    def cutoff_controls():
        lam, mu = 0.3 + 0.4j, -1.1 + 0.2j
        clean = lat.tau_commutator_norm(lam, mu, lat.LatticeSpec(3, 4, 0.25, 1.0), 2)
        at_plus_one = lat.tau_commutator_norm(
            lam, mu, lat.LatticeSpec(3, 3, 0.25, 1.0), 2, enforce_cutoff=False)
        leaking = lat.tau_commutator_norm(
            lam, mu, lat.LatticeSpec(3, 3, 0.25, 1.0), 3, enforce_cutoff=False)
        detail = (f"d=N+2: {clean:.2e}; d=N+1: {at_plus_one:.2e} "
                  f"(still exact: monomials touch each site once); "
                  f"d=N: {leaking:.2e} (truncation leakage)")
        return leaking, None, detail, \
            clean < lat.IDENTITY_TOL and leaking > 1e-6
    _record(records, "lattice.cutoff-control", "truncation-leakage-control",
            {"sites": 3}, "predicate", cutoff_controls)

    def conservation():
        worst = 0.0
        for _ in range(3):
            lam = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            worst = max(worst, lat.number_conservation_defect(
                lat.LatticeSpec(3, 3, 0.35, 1.2), lam))
        return worst, 0.0, "off-sector blocks exactly zero"
    _record(records, "lattice.number-conservation",
            "particle-number-conservation", {"sites": 3}, "<=", conservation)

    def adjoint_pairing():
        worst = 0.0
        for _ in range(3):
            worst = max(worst, lat.hermiticity_pairing_defect(
                lat.LatticeSpec(3, 4, 0.3, 1.0), rng.uniform(-2, 2)))
        return worst, lat.IDENTITY_TOL, "diagonal entries adjoint at real lam"
    _record(records, "lattice.adjoint-pairing",
            "monodromy-adjoint-pairing", {"sites": 3}, "<=", adjoint_pairing)

    def continuum():
        rep = lat.continuum_limit_rate(1.0, BOX_L, 0.9)
        detail = (f"raw orders {rep['order_vacuum_raw']:.2f}/"
                  f"{rep['order_one_particle_raw']:.2f} (per-site modulus factor); "
                  f"normalized {rep['order_vacuum_normalized']:.2f}/"
                  f"{rep['order_one_particle_normalized']:.2f}")
        floors = {**lat.CONTINUUM_MIN_ORDER, **lat.CONTINUUM_MIN_RAW_ORDER}
        return None, None, detail, all(rep[k] >= v for k, v in floors.items())
    _record(records, "lattice.continuum-rate", "continuum-limit-convergence",
            {"sites": list(lat.CONTINUUM_SITES)}, "predicate", continuum)

    def ordering_demo():
        rep = lat.normal_ordering_breakdown(lat.LatticeSpec(2, 3, 0.2, 1.5), 0.7)
        rate = lat.ordering_defect_rate(1.5, 3, 0.7)
        detail = (f"one-site diff {rep['one_site_difference']:.1e}; two-site "
                  f"relative {rep['relative_difference']:.3e}; step-order "
                  f"{rate['order']:.2f}")
        return rep["relative_difference"], None, detail, \
            rep["one_site_difference"] == 0.0 \
            and rep["relative_difference"] > 0.0 and 1.5 <= rate["order"] <= 2.5
    _record(records, "lattice.ordering-breakdown", "classical-ordering-loss",
            {"sites": 2, "cutoff": 3}, "predicate", ordering_demo)

    _expect_raise(records, "lattice.pole-guard", RMatrixPole,
                  lambda: lat.rtt_residual(1.0, 1.0,
                                           lat.LatticeSpec(1, 3, 0.3, 1.0)))
    _expect_raise(records, "lattice.cutoff-guard", CutoffTooSmall,
                  lambda: lat.tau_commutator_norm(
                      0.3, 1.1, lat.LatticeSpec(2, 3, 0.3, 1.0), 2))
    _expect_raise(records, "lattice.size-guard", SizeLimit,
                  lambda: lat.monodromy(lat.LatticeSpec(10, 5, 0.1, 1.0), 0.5))
    return records


# ----------------------------------------------------------------------
# Integral operator
# ----------------------------------------------------------------------

def run_aop_suite(cfg: RunConfig) -> list:
    rng = _suite_rng(cfg, "aop")
    records = []
    lam = aop.SpectralParameter(exact(Fraction(1, 3), Fraction(-2)))

    for n in (1, 2, 3):
        def diagonality(n=n):
            failing = 0
            for _ in range(3):
                w = build_bethe(sample_rapidities(rng, n), sample_coupling(rng))
                failing += aop.eigenvalue_check(lam, w)[1] != 0.0
            return failing, 0.0, ""
        _record(records, f"aop.diagonality.n{n}", "bethe-state-diagonality",
                {"n": n, "samples": 3}, "exact-zero", diagonality)

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
        return worst, 1e-8, "direct quadrature of the kernels"
    _record(records, "aop.numeric-cross-check",
            "quadrature-oracle", {"n_max": 2}, "<", numeric_cross_check)

    def boundary_value_problem():
        left = 0
        for n in (1, 2, 3):
            w = build_bethe(sample_rapidities(rng, n),
                            sample_coupling(rng))
            g = aop.apply_A(lam, w.canonical, w.coupling.c)
            pde, boundary = aop.bvp_residual(lam, w.canonical, g, w.coupling.c)
            left += sum(p.term_count() for p in (pde, *boundary))
        return left, 0.0, ""
    _record(records, "aop.boundary-value-problem",
            "intertwining-differential-relation", {"n_max": 3}, "exact-zero",
            boundary_value_problem)

    def bracket_preservation():
        failing = 0
        for _ in range(10):
            wa = build_bethe(sample_rapidities(rng, 2),
                             sample_coupling(rng))
            wb = build_bethe(sample_rapidities(rng, 2), wa.coupling)
            combo = wa.canonical + wb.canonical.scale(
                exact(rng.randint(-3, 3), rng.randint(1, 3)))
            before = aop.pair_bracket_residual(combo, wa.coupling.c)
            g = aop.apply_A(lam, combo, wa.coupling.c)
            after = aop.pair_bracket_residual(g, wa.coupling.c)
            failing += before != 0.0 or after != 0.0
        return failing, 0.0, \
            "10 non-eigenstate combinations with vanishing brackets"
    _record(records, "aop.bracket-preservation",
            "boundary-bracket-preservation", {"inputs": 10}, "exact-zero",
            bracket_preservation)

    def generic_bracket_equality():
        raps = sample_rapidities(rng, 2)
        f_poly = ExpPoly.from_terms(
            2, [(1, tuple(raps.values)), (1, tuple(reversed(raps.values)))], EXACT)
        c = Fraction(5, 4)
        g = aop.apply_A(lam, f_poly, c)
        _, boundary = aop.bvp_residual(lam, f_poly, g, c)
        # the count includes the control that the input's bracket is nonzero
        left = sum(b.term_count() for b in boundary) \
            + (aop.pair_bracket_residual(f_poly, c) == 0)
        return left, 0.0, "bracket carried over unchanged for a non-eigen input"
    _record(records, "aop.bracket-equality-generic",
            "boundary-bracket-preservation", {"n": 2}, "exact-zero",
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
        return (lhs - rhs).term_count() + (ident - wa.canonical).term_count(), \
            0.0, ""
    _record(records, "aop.linearity-and-free-limit",
            "operator-linearity", {}, "exact-zero", linearity_and_identity)

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
        return None, None, "eigenvalues commute and tend to 1 at deep lam", \
            commute and far
    _record(records, "aop.eigenvalue-structure", "commuting-eigenvalue-family",
            {}, "predicate", eigenvalue_structure)

    def expansion_decay():
        w = build_bethe(RapiditySet.of([-0.7, 1.1]), Coupling(1.25))
        rep = aop.asymptotic_expand(w.canonical, 1.25, [8.0, 16.0, 32.0, 64.0],
                                    0.3, 1.3)
        fits = rep["fitted_decay_order"]
        return None, None, \
            "decay orders " + ", ".join(f"{fits[m]:.2f}" for m in range(4)), \
            all(abs(fits[m] - (m + 1)) <= 0.1 * (m + 1) for m in range(4))
    _record(records, "aop.expansion-decay", "interior-truncation-decay",
            {"orders": [0, 1, 2, 3]}, "predicate", expansion_decay)

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
        return None, None, \
            "boundary term at separation 1/t matches the retained order", ok
    _record(records, "aop.nonuniform-expansion", "boundary-term-nonuniformity",
            {"t": [10, 20, 40]}, "predicate", nonuniform_boundary)

    _expect_raise(records, "aop.convergence-domain", ConvergenceDomain,
                  lambda: aop.SpectralParameter(1.0 + 0.0j))
    return records


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
