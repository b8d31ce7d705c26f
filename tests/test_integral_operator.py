"""Integral-operator action: diagonality, boundary value problem,
expansion non-uniformity."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from qnls import integral_operator as aop
from qnls.errors import ConvergenceDomain
from qnls.exact import EXACT, FLOAT, exact
from qnls.planewaves import Coupling, ExpPoly, RapiditySet, build_bethe

LAM = aop.SpectralParameter(exact(F(1, 3), F(-2)))


def rational_rapidities(n):
    return st.sets(
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
        min_size=n, max_size=n).map(lambda s: RapiditySet.of(sorted(s)))


coupling_values = st.fractions(min_value=F(1, 4), max_value=3,
                               max_denominator=4).map(Coupling)


class TestDomain:
    def test_requires_lower_half_plane(self):
        with pytest.raises(ConvergenceDomain):
            aop.SpectralParameter(1.0 + 0.0j)
        with pytest.raises(ConvergenceDomain):
            aop.SpectralParameter(exact(1, 0))

    def test_sector_cap(self):
        w = build_bethe(RapiditySet.of([1, 2, 3, 4]), Coupling(1))
        with pytest.raises(ValueError):
            aop.apply_A(LAM, aop.SectorFunction.from_bethe(w), F(1))

    def test_vacuum_untouched(self):
        f = aop.SectorFunction.from_poly(ExpPoly.from_terms(0, [(1, ())], EXACT))
        g = aop.apply_A(LAM, f, F(2))
        assert (g.canonical - f.canonical).is_empty()


class TestDiagonality:
    def test_single_particle_closed_form(self):
        k, c = F(1, 2), F(2, 3)
        w = build_bethe(RapiditySet.of([k]), Coupling(c))
        g = aop.apply_A(LAM, aop.SectorFunction.from_bethe(w), c)
        expected = (LAM.value - exact(k) - exact(0, 1) * exact(c)) \
            / (LAM.value - exact(k))
        assert (g.canonical - w.canonical.scale(expected)).is_empty()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exact_residual_zero(self, n):
        raps = RapiditySet.of([F(-1), F(1, 2), F(2)][:n])
        w = build_bethe(raps, Coupling(F(3, 2)))
        measured, residual = aop.eigenvalue_check(LAM, w)
        assert residual == 0.0
        expected = aop.bethe_eigenvalue(LAM, raps.values, F(3, 2), EXACT)
        assert measured == pytest.approx(complex(expected), rel=1e-12)

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=15, deadline=None)
    def test_random_states(self, n, data):
        raps = data.draw(rational_rapidities(n))
        c = data.draw(coupling_values)
        w = build_bethe(raps, c)
        _, residual = aop.eigenvalue_check(LAM, w)
        assert residual == 0.0

    def test_free_limit_eigenvalue_is_one(self):
        big = aop.bethe_eigenvalue(
            aop.SpectralParameter(0.5 - 1e7j), [0.3, 1.1], 1e-9, FLOAT)
        assert big == pytest.approx(1.0, abs=1e-8)

    def test_deep_parameter_eigenvalue_near_one(self):
        val = aop.bethe_eigenvalue(
            aop.SpectralParameter(-1e6j), [0.3, 1.1], 2.0, FLOAT)
        assert abs(val - 1.0) <= 3.0 * 2.0 * 2 / 1e6

    def test_eigenvalue_depends_on_set_not_order(self):
        a = aop.bethe_eigenvalue(LAM, [F(1), F(2)], F(1), EXACT)
        b = aop.bethe_eigenvalue(LAM, [F(2), F(1)], F(1), EXACT)
        assert a == b


class TestConstantInput:
    def test_matches_closed_form(self):
        f = aop.SectorFunction.from_poly(
            ExpPoly.from_terms(2, [(1, (F(0), F(0)))], EXACT))
        c = F(1)
        g = aop.apply_A(LAM, f, c)
        lam = complex(LAM.value)
        il = 1j * lam
        for (x, y) in [(0.2, 0.9), (-1.0, 0.5)]:
            want = 1 + 2 / il + (1 - np.exp(1j * lam * (x - y))) / il ** 2
            got = complex(g.canonical.evaluate(np.array([x, y])))
            assert got == pytest.approx(want, abs=1e-12)


class TestLinearity:
    @given(rational_rapidities(2), rational_rapidities(2), coupling_values)
    @settings(max_examples=10, deadline=None)
    def test_linear_in_input(self, ra, rb, c):
        wa = build_bethe(ra, c)
        wb = build_bethe(rb, c)
        scale = exact(2, F(-1, 3))
        combo = wa.canonical + wb.canonical.scale(scale)
        lhs = aop.apply_A(LAM, aop.SectorFunction.from_poly(combo), c.c).canonical
        rhs = aop.apply_A(LAM, aop.SectorFunction.from_bethe(wa), c.c).canonical \
            + aop.apply_A(LAM, aop.SectorFunction.from_bethe(wb), c.c) \
            .canonical.scale(scale)
        assert (lhs - rhs).is_empty()

    def test_zero_coupling_is_identity(self):
        w = build_bethe(RapiditySet.of([F(-1), F(2)]), Coupling(F(1)))
        g = aop.apply_A(LAM, aop.SectorFunction.from_bethe(w), 0)
        assert (g.canonical - w.canonical).is_empty()


class TestBoundaryValueProblem:
    def test_single_particle_scalar_identity(self):
        k, c = F(1, 2), F(2)
        w = build_bethe(RapiditySet.of([k]), Coupling(c))
        f = aop.SectorFunction.from_bethe(w)
        g = aop.apply_A(LAM, f, c)
        pde, boundary = aop.bvp_residual(LAM, f, g, c)
        assert pde.is_empty() and boundary == []

    @pytest.mark.parametrize("n", [2, 3])
    def test_bethe_input(self, n):
        raps = RapiditySet.of([F(-1), F(1, 2), F(2)][:n])
        w = build_bethe(raps, Coupling(F(5, 4)))
        f = aop.SectorFunction.from_bethe(w)
        g = aop.apply_A(LAM, f, F(5, 4))
        pde, boundary = aop.bvp_residual(LAM, f, g, F(5, 4))
        assert pde.is_empty()
        assert all(b.is_empty() for b in boundary)

    def test_bracket_equality_for_non_eigen_input(self):
        # symmetric, continuous, kinked at the diagonal, nonzero bracket
        f_poly = ExpPoly.from_terms(2, [(1, (F(1), F(3))),
                                        (1, (F(3), F(1)))], EXACT)
        c = F(5, 4)
        assert aop.pair_bracket_residual(f_poly, c) > 0
        f = aop.SectorFunction.from_poly(f_poly)
        g = aop.apply_A(LAM, f, c)
        _, boundary = aop.bvp_residual(LAM, f, g, c)
        assert all(b.is_empty() for b in boundary)

    @given(rational_rapidities(2), rational_rapidities(2), coupling_values,
           st.integers(-3, 3), st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_bracket_preservation_on_bracketed_inputs(self, ra, rb, c, pre, qim):
        wa = build_bethe(ra, c)
        wb = build_bethe(rb, c)
        combo = wa.canonical + wb.canonical.scale(exact(pre, qim))
        assert aop.pair_bracket_residual(combo, c.c) == 0.0
        g = aop.apply_A(LAM, aop.SectorFunction.from_poly(combo), c.c)
        assert aop.pair_bracket_residual(g.canonical, c.c) == 0.0


class TestNumericCrossCheck:
    def test_single_particle(self):
        w = build_bethe(RapiditySet.of([0.5]), Coupling(0.75))
        lam = 0.4 - 1.5j
        ana = complex(aop.apply_A(
            aop.SpectralParameter(lam), aop.SectorFunction.from_bethe(w),
            0.75).canonical.evaluate(np.array([0.3])))
        num = aop.apply_A_numeric_point(lam, w, [0.3])
        assert abs(ana - num) < 1e-10

    def test_two_particles(self):
        w = build_bethe(RapiditySet.of([-0.7, 1.1]), Coupling(1.25))
        lam = 0.4 - 1.5j
        ana = complex(aop.apply_A(
            aop.SpectralParameter(lam), aop.SectorFunction.from_bethe(w),
            1.25).canonical.evaluate(np.array([0.2, 0.9])))
        num = aop.apply_A_numeric_point(lam, w, [0.2, 0.9])
        assert abs(ana - num) / abs(ana) < 1e-8

    def test_memoized_complex_quadrature_matches_two_plain_passes(self):
        # the real and imaginary passes share one memo of the integrand;
        # the value must be bit-identical to two unshared passes
        w = build_bethe(RapiditySet.of([-0.7, 1.1]), Coupling(1.25))
        calls = []

        def fn(t):
            calls.append(t)
            return np.exp(1j * (0.4 - 1.5j) * (0.2 - t)) * w.evaluate([t, 0.9])

        a, b = 0.2, 30.9
        got = aop._quad_complex(fn, a, b, 1e-9)
        memoized = len(calls)
        kw = dict(epsabs=1e-13, epsrel=1e-9, limit=300)
        re = integrate.quad(lambda t: fn(t).real, a, b, **kw)[0]
        im = integrate.quad(lambda t: fn(t).imag, a, b, **kw)[0]
        assert got == complex(re, im)
        assert memoized < len(calls) - memoized


class TestExpansion:
    @pytest.fixture()
    def pair_state(self):
        w = build_bethe(RapiditySet.of([-0.7, 1.1]), Coupling(1.25))
        return aop.SectorFunction.from_bethe(w)

    def test_constant_input_reduction(self):
        f = aop.SectorFunction.from_poly(
            ExpPoly.from_terms(2, [(1.0, (0.0, 0.0))], FLOAT))
        c, lam, x, y = 1.0, -8j, 0.2, 0.9
        got = aop.expansion_partial_sum(f, c, lam, x, y, 2)
        il = 1j * lam
        want = 1 + 2 * c / il + c * c / il ** 2 \
            - c * c * np.exp(1j * lam * (x - y)) / il ** 2
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_coupling_terminates(self):
        f = aop.SectorFunction.from_poly(
            ExpPoly.from_terms(2, [(1.0, (0.4, 1.3))], FLOAT))
        val = complex(f.canonical.evaluate(np.array([0.1, 0.8])))
        for m in range(4):
            assert aop.expansion_partial_sum(f, 0.0, -5j, 0.1, 0.8, m) \
                == pytest.approx(val)

    def test_truncation_decay_orders(self, pair_state):
        rep = aop.asymptotic_expand(pair_state, 1.25,
                                    [8.0, 16.0, 32.0, 64.0], 0.3, 1.3)
        for m, fitted in rep["fitted_decay_order"].items():
            assert abs(fitted - (m + 1)) <= 0.1 * (m + 1)

    def test_halved_separation_error_ratio(self, pair_state):
        # per doubling of t, the order-m truncation error shrinks ~2^-(m+1)
        rep = aop.asymptotic_expand(pair_state, 1.25, [16.0, 32.0], 0.3, 1.3)
        e16 = rep["rows"][0]["errors"]
        e32 = rep["rows"][1]["errors"]
        for m in range(4):
            assert e16[m] / e32[m] == pytest.approx(2 ** (m + 1), rel=0.35)


class TestNonuniformity:
    def test_boundary_term_at_inverse_separation(self):
        w = build_bethe(RapiditySet.of([-0.7, 1.1]), Coupling(1.25))
        f = aop.SectorFunction.from_bethe(w)
        scan = aop.nonuniformity_scan(f, 1.25, [10.0, 20.0, 40.0])
        for row in scan["rows"]:
            assert row["boundary_term"] >= row["floor"] * (1 - 1e-12)
            assert 0.05 <= row["boundary_term"] / row["retained_term"] <= 20.0
            assert row["suppressed_at_10_over_t"] == pytest.approx(
                math.exp(-9.0) * row["boundary_term"], rel=1e-9)

    def test_integrated_contribution_one_order_down(self):
        w = build_bethe(RapiditySet.of([-0.7, 1.1]), Coupling(1.25))
        f = aop.SectorFunction.from_bethe(w)
        scan = aop.nonuniformity_scan(f, 1.25, [10.0, 20.0, 40.0])
        vals = [r["integrated_over_unit_separation"] * r["t"] ** 3
                for r in scan["rows"]]
        assert max(vals) / min(vals) < 1.2
