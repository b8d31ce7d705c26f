"""Charge eigenvalues, boundary conditions and the squared-delta defect."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qnls import charges as ch
from qnls.errors import DomainError
from qnls.bethe import (BoxSpec, QuantumNumbers, ground_state_quantum_numbers,
                        solve)
from qnls.exact import EXACT, exact
from qnls.planewaves import (Coupling, ExpPoly, RapiditySet, build_bethe,
                             symmetrized_plane_wave)

BOX_L = 2.0 * math.pi


def rational_rapidities(n):
    return st.sets(
        st.fractions(min_value=-6, max_value=6, max_denominator=5),
        min_size=n, max_size=n).map(lambda s: RapiditySet.of(sorted(s)))


coupling_values = st.fractions(min_value=F(1, 4), max_value=4,
                               max_denominator=4).map(Coupling)


class TestEigenvalues:
    def test_quadratic_power_sum(self):
        assert ch.charge_eigenvalue("H2", RapiditySet.of([1, 2])).value == 5

    def test_pair_product(self):
        assert ch.charge_eigenvalue("J2", RapiditySet.of([1, 2])).value == -2

    def test_quartic_power_sum(self):
        assert ch.charge_eigenvalue("H4", RapiditySet.of([1, 2, 3])).value == 98

    def test_momentum_is_imaginary(self):
        assert ch.charge_eigenvalue("H1", RapiditySet.of([1, 2])).value \
            == exact(0, 3)

    def test_triple_product(self):
        assert ch.charge_eigenvalue("J3", RapiditySet.of([1, 2, 3])).value \
            == exact(0, -6)


class TestEmptyState:
    def test_power_sum_rejects_empty(self):
        with pytest.raises(DomainError):
            ch.power_sum([], 2)

    def test_elementary_symmetric_rejects_empty(self):
        with pytest.raises(DomainError):
            ch.elementary_symmetric([], 2)

    def test_composition_check_rejects_empty(self):
        with pytest.raises(DomainError):
            ch.composition_identity_check(RapiditySet.of([]))

    def test_eigenvalue_rejects_empty(self):
        with pytest.raises(DomainError):
            ch.charge_eigenvalue("H2", RapiditySet.of([]))


class TestInteriorAction:
    def test_momentum_on_pair(self):
        w = build_bethe(RapiditySet.of([1, 2]), Coupling(1))
        applied = ch.apply_free_part(ch.CHARGES["H1"], w)
        assert (applied - w.canonical.scale(exact(0, 3))).is_empty()

    def test_energy_on_pair(self):
        w = build_bethe(RapiditySet.of([1, 2]), Coupling(1))
        applied = ch.apply_free_part(ch.CHARGES["H2"], w)
        assert (applied - w.canonical.scale(exact(5))).is_empty()

    def test_triple_charge_on_three(self):
        w = build_bethe(RapiditySet.of([1, 2, 3]), Coupling(1))
        applied = ch.apply_free_part(ch.CHARGES["J3"], w)
        assert (applied - w.canonical.scale(exact(0, -6))).is_empty()

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=20, deadline=None)
    def test_every_charge_diagonal(self, n, data):
        raps = data.draw(rational_rapidities(n))
        c = data.draw(coupling_values)
        w = build_bethe(raps, c)
        for name, spec in ch.CHARGES.items():
            if n < spec.min_particles():
                continue
            assert ch.interior_eigen_residual(name, w).is_empty(), name


class TestBoundaryConditions:
    def test_pair_bracket_two_particles(self):
        w = build_bethe(RapiditySet.of([1, 2]), Coupling(3))
        assert ch.boundary_residual_h2(w, 1).is_empty()

    def test_pair_bracket_three_particles_all_planes(self):
        w = build_bethe(RapiditySet.of([1, 2, 4]), Coupling(1))
        for j in (1, 2):
            assert ch.boundary_residual_h2(w, j).is_empty()

    @given(coupling_values)
    @settings(max_examples=15, deadline=None)
    def test_pair_bracket_any_coupling(self, c):
        w = build_bethe(RapiditySet.of([F(1), F(2)]), c)
        assert ch.boundary_residual_h2(w, 1).is_empty()

    def test_triple_bracket(self):
        w = build_bethe(RapiditySet.of([1, 2, 3]), Coupling(1))
        assert ch.boundary_residual_j3(w, 1).is_empty()

    def test_triple_bracket_four_particles(self):
        w = build_bethe(RapiditySet.of([1, 2, 3, 5]), Coupling(2))
        assert ch.boundary_residual_j3(w, 2).is_empty()

    def test_triple_bracket_negative_control(self):
        single = ExpPoly.from_terms(3, [(1, (F(1), F(2), F(3)))], EXACT)
        assert not ch.boundary_residual_j3_generic(single, F(1), 1).is_empty()

    def test_quadruple_bracket(self):
        w = build_bethe(RapiditySet.of([1, 2, 3, 4]), Coupling(1))
        assert all(r.is_empty() for r in ch.boundary_residual_j4(w))

    def test_quadruple_bracket_other_rapidities(self):
        w = build_bethe(RapiditySet.of([-1, 0, 2, 5]), Coupling(3))
        assert all(r.is_empty() for r in ch.boundary_residual_j4(w))

    def test_quadruple_negative_control(self):
        free = symmetrized_plane_wave(RapiditySet.of([1, 2, 3, 4]))
        residuals = ch.boundary_residual_j4_generic(free, F(1))
        assert any(not r.is_empty() for r in residuals)

    def test_pair_bracket_negative_control(self):
        free = symmetrized_plane_wave(RapiditySet.of([1, 2, 3]))
        assert not ch.boundary_residual_h2_generic(free, F(1), 1).is_empty()

    @given(st.integers(2, 4), st.data())
    @settings(max_examples=20, deadline=None)
    def test_all_brackets_random_states(self, n, data):
        raps = data.draw(rational_rapidities(n))
        c = data.draw(coupling_values)
        w = build_bethe(raps, c)
        for key, res in ch.all_boundary_residuals(w).items():
            assert res.is_empty(), key


class TestCompositions:
    def test_pair_example(self):
        rep = ch.composition_identity_check(RapiditySet.of([1, 2]))
        assert rep["ok"]
        # p3 = 9 = 27 - 18 + 0
        assert ch.charge_eigenvalue("H3", RapiditySet.of([1, 2])).value \
            == exact(0, -9)

    def test_triple_example(self):
        rep = ch.composition_identity_check(RapiditySet.of([1, 2, 3]))
        assert rep["ok"]

    def test_single_particle_trivial(self):
        rep = ch.composition_identity_check(RapiditySet.of([F(5, 3)]))
        assert rep["ok"]

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_sets(self, n, data):
        raps = data.draw(rational_rapidities(n))
        assert ch.composition_identity_check(raps)["ok"]


class TestDefectScan:
    def test_halving_doubles_defect(self):
        w = build_bethe(RapiditySet.of([1.0, 2.0]), Coupling(1.0))
        d8 = ch.g4_defect_scan(w, [2.0 ** -8], BOX_L)[0][1]
        d9 = ch.g4_defect_scan(w, [2.0 ** -9], BOX_L)[0][1]
        assert d9 / d8 == pytest.approx(2.0, rel=0.05)

    def test_coupling_square_scaling(self):
        w1 = build_bethe(RapiditySet.of([1.0, 2.0]), Coupling(1.0))
        w2 = build_bethe(RapiditySet.of([1.0, 2.0]), Coupling(1e-3))
        d1 = ch.g4_defect_scan(w1, [2.0 ** -6], BOX_L)[0][1]
        d2 = ch.g4_defect_scan(w2, [2.0 ** -6], BOX_L)[0][1]
        assert d2 / d1 == pytest.approx(1e-6, rel=0.1)

    def test_three_particle_remainder_bounded(self):
        w = build_bethe(RapiditySet.of([0.5, 1.5, 3.0]), Coupling(1.0))
        eps = [2.0 ** (-m) for m in range(3, 8)]
        scan = ch.g4_defect_scan(w, eps, BOX_L)
        slope = ch.fit_loglog_slope(scan)
        assert slope == pytest.approx(-1.0, abs=0.05)
        A, rem = ch.one_over_eps_remainders(scan, n_fit=3)
        assert max(abs(r) for r in rem[:3]) <= 0.05 * A / eps[-1]

    def test_rejects_large_sectors(self):
        w = build_bethe(RapiditySet.of([1.0, 2.0, 3.0, 4.0]), Coupling(1.0))
        with pytest.raises(ValueError):
            ch.g4_defect_scan(w, [0.1], BOX_L)


class TestPairDeltaOverlap:
    def test_diagonal_positive(self):
        sol = solve(BoxSpec(BOX_L, 1.0, 2), ground_state_quantum_numbers(2))
        w = build_bethe(sol.rapidities, Coupling(1.0))
        val = ch.pair_delta_overlap(w, w, BOX_L)
        assert val.real > 0 and abs(val.imag) < 1e-9 * val.real

    def test_off_diagonal_nonzero_same_momentum(self):
        box = BoxSpec(BOX_L, 1.0, 2)
        wa = build_bethe(solve(box, ground_state_quantum_numbers(2)).rapidities,
                         Coupling(1.0))
        wb = build_bethe(
            solve(box, QuantumNumbers.of([F(-3, 2), F(3, 2)])).rapidities,
            Coupling(1.0))
        assert abs(ch.normalized_pair_delta_overlap(wa, wb, BOX_L)) > 1e-6

    def test_momentum_selection_rule(self):
        box = BoxSpec(BOX_L, 1.0, 2)
        wa = build_bethe(solve(box, ground_state_quantum_numbers(2)).rapidities,
                         Coupling(1.0))
        wb = build_bethe(
            solve(box, QuantumNumbers.of([F(-1, 2), F(3, 2)])).rapidities,
            Coupling(1.0))
        assert abs(ch.normalized_pair_delta_overlap(wa, wb, BOX_L)) < 1e-12

    def test_impenetrable_limit_vanishes(self):
        sol = solve(BoxSpec(BOX_L, 1e6, 2), ground_state_quantum_numbers(2))
        w = build_bethe(sol.rapidities, Coupling(1e6))
        assert abs(ch.normalized_pair_delta_overlap(w, w, BOX_L)) < 1e-6

    def test_three_particle_diagonal(self):
        sol = solve(BoxSpec(BOX_L, 1.0, 3), ground_state_quantum_numbers(3))
        w = build_bethe(sol.rapidities, Coupling(1.0))
        val = ch.normalized_pair_delta_overlap(w, w, BOX_L)
        assert val.real > 0 and abs(val.imag) < 1e-7
