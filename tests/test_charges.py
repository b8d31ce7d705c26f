"""Charge eigenvalues, boundary conditions and the squared-delta defect."""

import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

from qnls import charges as ch
from qnls.errors import DomainError
from qnls.bethe import (BoxSpec, QuantumNumbers, _log_jacobian,
                        ground_state_quantum_numbers, solve)
from qnls.exact import EXACT, FLOAT, exact
from qnls.planewaves import (BetheWavefunction, Coupling, ExpPoly,
                             RapiditySet, build_bethe, symmetrized_plane_wave)

BOX_L = 2.0 * math.pi


def rational_rapidities(n):
    return st.sets(
        st.fractions(min_value=-6, max_value=6, max_denominator=5),
        min_size=n, max_size=n).map(lambda s: RapiditySet.of(sorted(s)))


coupling_values = st.fractions(min_value=F(1, 4), max_value=4,
                               max_denominator=4).map(Coupling)


def gauss_panel(a, b, order):
    """Gauss-Legendre nodes and weights of the given order on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (a + b) + 0.5 * (b - a) * x, 0.5 * (b - a) * w


def reference_pair_delta_overlap(f, g, L, order=64):
    """<f| sum_{j<k} delta(x_j - x_k) |g> for N = 3 by panel quadrature:
    three equal pair terms, each the integral of conj(f) g at
    (x, x, t) over [0, L]^2, split at t = x."""
    xs, wx = gauss_panel(0.0, L, order)
    total = 0.0 + 0.0j
    for x, wgt in zip(xs, wx):
        for a, b in ((0.0, x), (x, L)):
            ts, wt = gauss_panel(a, b, order // 2)
            pts = np.column_stack([np.full_like(ts, x), np.full_like(ts, x), ts])
            vals = np.conj(f.evaluate_many(pts)) * g.evaluate_many(pts)
            total += wgt * np.sum(wt * vals)
    return 3.0 * complex(total)


def solved_state(quantum_numbers, c):
    """Bethe state and rapidity array of the given quantum numbers in the
    box of length BOX_L."""
    box = BoxSpec(BOX_L, c, len(quantum_numbers))
    sol = solve(box, QuantumNumbers.of(quantum_numbers))
    k = np.array([float(v) for v in sol.rapidities.values])
    return build_bethe(sol.rapidities, Coupling(c)), k, box


def ground_and_excited(n):
    """The ground state's quantum numbers and those with the top one
    raised by one (a state of nonzero momentum)."""
    ground = [F(2 * m - (n - 1), 2) for m in range(n)]
    return [ground, ground[:-1] + [ground[-1] + 1]]


def reference_j4_tangential(poly, coupling):
    """The tangential part of the quadruple residual pair by pair: one
    d_j d_k pass and one restriction per pair j > k >= 3."""
    bracket = ch.pair_bracket(poly, coupling, 1)
    total = ExpPoly.zero(poly.num_vars - 1, poly.field)
    for k, j in itertools.combinations(range(3, poly.num_vars + 1), 2):
        deriv = bracket.weighted(lambda z, a=j, b=k: z[a - 1] * z[b - 1], 2)
        total = total + deriv.restrict_to_boundary(1)
    return total


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

    @given(st.integers(4, 6), st.data())
    @settings(max_examples=9, deadline=None)
    def test_quadruple_tangential_pass_matches_pair_loop(self, n, data):
        """The single e_2-weighted pass equals the per-pair loop, exactly
        in EXACT and to rounding in FLOAT, on free waves whose residual
        is not empty."""
        free = symmetrized_plane_wave(data.draw(rational_rapidities(n)))
        c = data.draw(coupling_values).c
        ref = reference_j4_tangential(free, c)
        assert not ref.is_empty()
        assert ch.boundary_residual_j4_generic(free, c)[0].terms == ref.terms
        free_f, c_f = free.to_float(), float(c)
        ref_f = reference_j4_tangential(free_f, c_f)
        new_f = ch.boundary_residual_j4_generic(free_f, c_f)[0]
        assert (new_f - ref_f).max_coeff() <= 1e-13 * ref_f.max_coeff()

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

    def test_rejects_single_particle(self):
        w = build_bethe(RapiditySet.of([1.0]), Coupling(1.0))
        with pytest.raises(ValueError):
            ch.g4_defect_scan(w, [0.1], BOX_L)

    # g4_defect_scan at the suite's inputs as computed by the nested
    # adaptive quadratures that the relative-coordinate rule replaced
    ADAPTIVE_SCANS = [
        ((1.0, 2.0), 0.5, [2.0 ** -m for m in range(2, 13)],
         [20.64811956712693, 40.74511860566009, 80.87267185531215,
          161.09538790828503, 321.52486612370683, 642.3759100739051,
          1284.0740583635265, 2567.4683893587267, 5134.256069620427,
          10267.830939546298, 20534.98043416611]),
        ((1.0, 2.0), 1.0, [2.0 ** -6, 2.0 ** -8, 2.0 ** -9],
         [1290.1078077421, 5140.298339996413, 10273.87461243317]),
        ((1.0, 2.0), 1e-3, [2.0 ** -6], [0.0012821088805773683]),
        ((0.5, 1.5, 3.0), 1.0, [2.0 ** -m for m in range(3, 8)],
         [404922.33547354443, 819322.3068665707, 1643985.4556638699,
          3291251.306187389, 6584760.836630829]),
    ]

    @pytest.mark.parametrize("raps,c,eps,expected", ADAPTIVE_SCANS)
    def test_matches_adaptive_quadrature_at_suite_inputs(self, raps, c, eps,
                                                         expected):
        w = build_bethe(RapiditySet.of(list(raps)), Coupling(c))
        scan = ch.g4_defect_scan(w, eps, BOX_L)
        assert [e for e, _ in scan] == eps
        for (_, got), want in zip(scan, expected):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_exact_and_float_states_agree(self):
        eps = [2.0 ** -4, 2.0 ** -7]
        exact_state = build_bethe(RapiditySet.of([F(1, 2), F(3, 2), F(3)]),
                                  Coupling(F(1)))
        float_state = build_bethe(RapiditySet.of([0.5, 1.5, 3.0]), Coupling(1.0))
        for (_, a), (_, b) in zip(ch.g4_defect_scan(exact_state, eps, BOX_L),
                                  ch.g4_defect_scan(float_state, eps, BOX_L)):
            assert a == pytest.approx(b, rel=1e-13)

    def test_rejects_state_not_invariant_under_rigid_shift(self):
        # two plane waves of total momenta 3 and 2.5: |chi|^2 carries the
        # total frequency 0.5 and depends on the centre of mass
        poly = ExpPoly.from_terms(2, [(1.0, (1.0, 2.0)), (1.0, (0.5, 2.0))],
                                  FLOAT)
        w = BetheWavefunction(RapiditySet.of([1.0, 2.0]), Coupling(1.0), poly)
        with pytest.raises(DomainError):
            ch.g4_defect_scan(w, [0.1], BOX_L)

    @pytest.mark.parametrize("eps", [0.0, -0.1])
    def test_rejects_non_positive_width(self, eps):
        w = build_bethe(RapiditySet.of([1.0, 2.0]), Coupling(1.0))
        with pytest.raises(DomainError):
            ch.g4_defect_scan(w, [eps], BOX_L)

    def test_three_particle_width_limited_by_measure_kink(self):
        # delta(u) delta(v) pins both gaps; its rule on [0, reach]^2 must
        # stay inside u + v <= L, so 2 * reach * eps <= L
        w = build_bethe(RapiditySet.of([0.5, 1.5, 3.0]), Coupling(1.0))
        widest = BOX_L / (2.0 * ch.DEFECT_REACH)
        (_, d), = ch.g4_defect_scan(w, [0.99 * widest], BOX_L)
        assert np.isfinite(d) and d > 0
        with pytest.raises(DomainError):
            ch.g4_defect_scan(w, [1.01 * widest], BOX_L)

    @pytest.mark.parametrize("eps", [0.5, 2.0])
    def test_two_particle_rule_stops_at_box_edge(self, eps):
        # reach 7 eps passes L; the rule ends at L, where the measure
        # L - u vanishes, and matches adaptive quadrature over [0, L]
        c = 0.5
        w = build_bethe(RapiditySet.of([1.0, 2.0]), Coupling(c))

        def integrand(u):
            delta = math.exp(-(u / eps) ** 2) / (eps * math.sqrt(math.pi))
            return (BOX_L - u) * abs(w.evaluate([0.0, u])) ** 2 * delta ** 2

        brute = integrate.quad(integrand, 0.0, BOX_L, epsabs=0.0,
                               epsrel=1e-13, limit=200)[0]
        (_, d), = ch.g4_defect_scan(w, [eps], BOX_L)
        assert d == pytest.approx(2.0 * c * c * 2.0 * brute, rel=1e-11)

    @given(st.complex_numbers(max_magnitude=30.0, allow_nan=False,
                              allow_infinity=False))
    @example(0j)
    @example(1e-9j)
    @example(-1e-9 + 0j)
    @example(3e-10 - 7e-10j)
    @example(0.999999 + 0j)
    @example(1.000001j)
    @settings(max_examples=60, deadline=None)
    def test_closed_form_gap_integrals_match_quadrature(self, z):
        """phi_1(z) = int_0^1 e^{z t} dt, phi_2(z) = int_0^1 (1-t) e^{z t} dt."""
        # tolerances relative to the largest value of the integrand
        tol = 1e-13 * math.exp(max(z.real, 0.0))
        for k, kernel in ((1, lambda t: np.exp(z * t)),
                          (2, lambda t: (1.0 - t) * np.exp(z * t))):
            parts = [integrate.quad(lambda t: part(kernel(t)), 0.0, 1.0,
                                    epsabs=tol, epsrel=1e-12, limit=200)[0]
                     for part in (np.real, np.imag)]
            assert complex(ch._phi(k, z)) == pytest.approx(
                complex(*parts), rel=1e-11, abs=10.0 * tol)


class TestDefectOracles:
    """The regularized defect against its small-width asymptotics, with
    <sum delta> = ``pair_delta_overlap(w, w, L)``.  delta_eps^2 =
    delta_{eps/sqrt 2} / (eps sqrt(2 pi)) gives the leading A/eps; for
    N = 2 the contact cusp g2(u) ~ g2(0)(1 + c|u|) (Olshanii and Dunjko,
    PRL 91 (2003) 090401) and the box measure L - |u| give the constant
    B; the N = 3 cross term tends to the triple-coincidence density
    (Gangardt and Shlyapnikov, PRL 90 (2003) 010401)."""

    STATES = [((1.0, 2.0), 0.5), ((1.0, 2.0), 1.0), ((1.0, 2.0), 1e-3),
              ((0.5, 1.5, 3.0), 1.0)]

    @staticmethod
    def amplitudes(raps, c):
        w = build_bethe(RapiditySet.of(list(raps)), Coupling(c))
        contact = ch.pair_delta_overlap(w, w, BOX_L).real
        A = 2.0 * c * c * contact / math.sqrt(2.0 * math.pi)
        B = 2.0 * c * c * contact * (c - 1.0 / BOX_L) / (2.0 * math.pi)
        return w, A, B

    @pytest.mark.parametrize("raps,c", STATES)
    def test_leading_term(self, raps, c):
        w, A, _ = self.amplitudes(raps, c)
        gaps = [e * d / A - 1.0
                for e, d in ch.g4_defect_scan(w, [2.0 ** -11, 2.0 ** -12], BOX_L)]
        assert abs(gaps[1]) <= 1e-4
        # the gap closes at rate O(eps)
        assert gaps[1] / gaps[0] == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("raps,c", STATES[:3])
    def test_two_particle_constant_term(self, raps, c):
        w, A, B = self.amplitudes(raps, c)
        (e, d), = ch.g4_defect_scan(w, [2.0 ** -12], BOX_L)
        assert (d - A / e) / B == pytest.approx(1.0, abs=3e-4)

    def test_three_particle_cross_term_limit(self):
        w = build_bethe(RapiditySet.of([0.5, 1.5, 3.0]), Coupling(1.0))
        # |chi|^2 on the diagonal does not depend on where it is taken
        density = [abs(w.evaluate([x] * 3)) ** 2 for x in (0.3, 2.0, 5.1)]
        assert density == pytest.approx([density[0]] * 3, rel=1e-12)
        limit = BOX_L * density[0]
        slopes = []
        for m in range(9, 13):
            e = 2.0 ** -m
            _, cross = ch._delta_expectations(w, BOX_L, e)
            slopes.append((cross - limit) / e)
        assert slopes[-1] > 0
        assert slopes == pytest.approx([slopes[-1]] * 4, rel=1e-3)


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

    def test_three_particle_off_diagonal_matches_panel_quadrature(self):
        # equal total momentum, so the element is nonzero
        wa, _, _ = solved_state([-1, 0, 1], 1.0)
        wb, _, _ = solved_state([-2, 0, 2], 1.0)
        ref = reference_pair_delta_overlap(wa, wb, BOX_L)
        val = ch.pair_delta_overlap(wa, wb, BOX_L)
        assert abs(ref) > 1e-3
        assert abs(val - ref) <= 1e-10 * abs(ref)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hermitian(self, n):
        # both of total quantum number 1, so the element is complex and nonzero
        excited = ground_and_excited(n)[1]
        wider = [excited[0] - 1] + excited[1:-1] + [excited[-1] + 1]
        wa, _, _ = solved_state(excited, 0.5)
        wb, _, _ = solved_state(wider, 0.5)
        ab = ch.pair_delta_overlap(wa, wb, BOX_L)
        ba = ch.pair_delta_overlap(wb, wa, BOX_L)
        assert abs(ab) > 1e-6
        assert abs(ab - ba.conjugate()) <= 1e-12 * abs(ab)

    def test_three_particle_momentum_selection_rule(self):
        wa, _, _ = solved_state([-1, 0, 1], 1.0)
        wb, _, _ = solved_state([-1, 0, 2], 1.0)
        assert abs(ch.normalized_pair_delta_overlap(wa, wb, BOX_L)) < 1e-12

    def test_single_particle_has_no_pairs(self):
        w, _, _ = solved_state([0], 1.0)
        assert ch.pair_delta_overlap(w, w, BOX_L) == 0


class TestOrderedBoxIntegral:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
    def test_zero_frequencies_give_simplex_volume(self, n):
        poly = ExpPoly.from_terms(n, [(1.0, (0.0,) * n)], FLOAT)
        assert ch.integrate_ordered_box(poly, 1.7) == pytest.approx(
            1.7 ** n / math.factorial(n), rel=1e-13)

    @pytest.mark.parametrize("w", [0.3, -2.5, 1.0 + 0.5j])
    def test_one_variable(self, w):
        L = 1.3
        poly = ExpPoly.from_terms(1, [(2.0 - 1.0j, (w,))], FLOAT)
        expected = (2.0 - 1.0j) * (np.exp(1j * w * L) - 1.0) / (1j * w)
        assert ch.integrate_ordered_box(poly, L) == pytest.approx(
            expected, rel=1e-13)

    def test_near_coincident_frequencies(self):
        # w_2 = 0 and w_1 + w_2 + w_3 = 0 make B_1 = B_2 and B_3 = B_0
        L = BOX_L
        exact_hit = ExpPoly.from_terms(3, [(1.0, (0.8, 0.0, -0.8))], FLOAT)
        near = ExpPoly.from_terms(3, [(1.0, (0.8, 1e-9, -0.8))], FLOAT)
        a = ch.integrate_ordered_box(exact_hit, L)
        b = ch.integrate_ordered_box(near, L)
        assert abs(a) > 1e-3
        assert abs(a - b) <= 1e-8 * abs(a)

    @pytest.mark.parametrize("w1", [0.0, 3e-16, 1e-15, 1e-14])
    def test_tiny_frequency_next_to_zero(self, w1):
        # B_1 = i w_2 L and B_2 = i (w_1 + w_2) L nearly coincide; the
        # w_1 = 0 value is int_0^L x e^{i a x} dx with a = w_2
        L = BOX_L
        a = 8.0 / L
        poly = ExpPoly.from_terms(2, [(1.0, (w1, a))], FLOAT)
        expected = (np.exp(1j * a * L) * (L / (1j * a) + 1.0 / a ** 2)
                    - 1.0 / a ** 2)
        value = ch.integrate_ordered_box(poly, L)
        assert abs(value - expected) <= 1e-12 * abs(expected)

    def test_empty_sum(self):
        assert ch.integrate_ordered_box(ExpPoly.zero(2, FLOAT), 2.0) == 0


class TestAnalyticOracles:
    @pytest.mark.parametrize("c", [0.5, 1.0])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_gaudin_korepin_norm(self, n, c):
        """norm = N! prod_{j<k} ((k_j - k_k)^2 + c^2) det G, with G the
        Jacobian of the log-form Bethe equations."""
        for qn in ground_and_excited(n):
            w, k, box = solved_state(qn, c)
            pairs = np.prod([(k[j] - k[l]) ** 2 + c * c
                             for j in range(n) for l in range(j + 1, n)])
            expected = (math.factorial(n) * pairs
                        * np.linalg.det(_log_jacobian(k, box)))
            assert ch.norm_sq(w, BOX_L) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("c", [0.5, 1.0])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hellmann_feynman_contact(self, n, c):
        """<sum_{j<k} delta(x_j - x_k)> = (1/2) dE/dc with E = sum k^2;
        dk/dc from implicit differentiation of the log-form equations
        F(k, c) = 0: G dk/dc = -dF/dc."""
        for qn in ground_and_excited(n):
            w, k, box = solved_state(qn, c)
            diff = k[:, None] - k[None, :]
            dF_dc = -np.sum(2.0 * diff / (c * c + diff ** 2), axis=1)
            dk_dc = np.linalg.solve(_log_jacobian(k, box), -dF_dc)
            expected = float(k @ dk_dc)
            val = ch.normalized_pair_delta_overlap(w, w, BOX_L)
            assert val.real == pytest.approx(expected, rel=1e-10)
            assert abs(val.imag) <= 1e-12 * abs(expected)
