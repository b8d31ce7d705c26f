"""Integral-operator action: diagonality, boundary value problem,
expansion non-uniformity."""

import functools
import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from qnls import integral_operator as aop
from qnls.charges import boundary_residual_h2, gauss_rule
from qnls.config import build_config
from qnls.errors import ConvergenceDomain, SizeLimit
from qnls.exact import EXACT, FLOAT, exact
from qnls.planewaves import Coupling, ExpPoly, RapiditySet, build_bethe
from qnls.suites import run_aop_suite

LAM = aop.SpectralParameter(exact(F(1, 3), F(-2)))
RAPIDITIES = [F(-1), F(1, 2), F(2), F(7, 3), F(-5, 2)]


def rational_rapidities(n):
    return st.sets(
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
        min_size=n, max_size=n).map(lambda s: RapiditySet.of(sorted(s)))


coupling_values = st.fractions(min_value=F(1, 4), max_value=3,
                               max_denominator=4).map(Coupling)


@st.composite
def exact_sums(draw, n):
    """General exact sums in n variables: complex-rational coefficients
    and frequencies from a small set, so restrictions merge terms."""
    thirds = st.integers(-4, 4).map(lambda k: F(k, 3))
    scalars = st.builds(exact, thirds, thirds)
    terms = draw(st.lists(st.tuples(scalars, st.tuples(*[thirds] * n)),
                          min_size=1, max_size=10))
    return ExpPoly.from_terms(n, terms, EXACT)


class TestDomain:
    def test_requires_lower_half_plane(self):
        with pytest.raises(ConvergenceDomain):
            aop.SpectralParameter(1.0 + 0.0j)
        with pytest.raises(ConvergenceDomain):
            aop.SpectralParameter(exact(1, 0))

    @pytest.mark.parametrize("value", [complex(math.nan, -1.0),
                                       complex(0.0, -math.inf),
                                       complex(math.inf, -1.0)])
    def test_requires_finite_value(self, value):
        """A non-finite lambda is refused before anything is built: apply_A
        would have no exact binary fraction to take of it."""
        with pytest.raises(ConvergenceDomain):
            aop.SpectralParameter(value)

    def test_term_count_guard(self, monkeypatch):
        """N = 6 Bethe states (972,720 terms) are refused before any
        term is built."""
        w = build_bethe(RapiditySet.of([1, 2, 3, 4, 5, 6]), Coupling(1))

        def built(*_args):
            raise AssertionError("apply_A built terms past its bound")
        monkeypatch.setattr(aop, "_subset_integral", built)
        monkeypatch.setattr(ExpPoly, "_merged", built)
        with pytest.raises(SizeLimit):
            aop.apply_A(LAM, w.canonical, F(1))

    @pytest.mark.parametrize("field", [EXACT, FLOAT])
    def test_rejects_non_real_frequency(self, field):
        """A decaying or growing wave in any coordinate is refused: the
        improper integral need not converge against it."""
        real = ExpPoly.from_terms(2, [(1, (F(1), F(2)))], field)
        aop.apply_A(LAM, real, F(1))
        for freq in ((exact(1), exact(2, F(1, 2))), (exact(1, -3), exact(2))):
            f = ExpPoly.from_terms(2, [(1, (F(1), F(2))), (1, freq)], field)
            with pytest.raises(ConvergenceDomain):
                aop.apply_A(LAM, f, F(1))

    @pytest.mark.parametrize("field", [EXACT, FLOAT])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_term_count_is_pre_merge_count(self, n, field, monkeypatch):
        raps = RapiditySet.of(RAPIDITIES[:n], field)
        w = build_bethe(raps, Coupling(field.real(1)))
        merged = ExpPoly._merged
        sizes = []

        def counted(poly, raw_terms):
            raw = list(raw_terms)
            sizes.append(len(raw))
            return merged(poly, raw)
        monkeypatch.setattr(ExpPoly, "_merged", counted)
        aop.apply_A(LAM, w.canonical, F(3, 2))
        assert sizes == [aop.apply_A_term_count(n, w.canonical.term_count())]
        assert aop.apply_A_term_count(n, math.factorial(n)) \
            == [2, 14, 156, 2328][n - 1]

    def test_vacuum_untouched(self):
        f = ExpPoly.from_terms(0, [(1, ())], EXACT)
        g = aop.apply_A(LAM, f, F(2))
        assert (g - f).is_empty()


class TestDiagonality:
    def test_single_particle_closed_form(self):
        k, c = F(1, 2), F(2, 3)
        w = build_bethe(RapiditySet.of([k]), Coupling(c))
        g = aop.apply_A(LAM, w.canonical, c)
        expected = (LAM.value - exact(k) - exact(0, 1) * exact(c)) \
            / (LAM.value - exact(k))
        assert (g - w.canonical.scale(expected)).is_empty()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_exact_residual_zero(self, n):
        raps = RapiditySet.of(RAPIDITIES[:n])
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

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=15, deadline=None)
    def test_float_diagonal_by_coefficients(self, n, data):
        """In FLOAT, g = A f cancels against Lambda f term by term: every
        key of g is an exact sum rounded once, so the terms of one
        frequency meet on one key, and no two keys are a rounding
        apart."""
        values = data.draw(st.lists(st.floats(-4, 4), min_size=n, max_size=n)
                           .filter(lambda v: all(abs(a - b) > 0.25 for a, b in
                                                 itertools.combinations(v, 2))))
        c = data.draw(st.floats(0.25, 3))
        lam = aop.SpectralParameter(complex(data.draw(st.floats(-3, 3)),
                                            data.draw(st.floats(-3, -0.5))))
        w = build_bethe(RapiditySet.of(values), Coupling(c))
        f = w.canonical
        g = aop.apply_A(lam, f, c)
        expected = aop.bethe_eigenvalue(lam, w.rapidities.values, c, FLOAT)
        assert (g - f.scale(expected)).max_coeff() <= 1e-12 * f.max_coeff()
        keys = np.array(g.keys)
        gaps = np.abs(keys[:, None] - keys[None, :]).max(axis=2)
        np.fill_diagonal(gaps, np.inf)
        assert gaps.min() > 1e-12

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
        f = ExpPoly.from_terms(2, [(1, (F(0), F(0)))], EXACT)
        c = F(1)
        g = aop.apply_A(LAM, f, c)
        lam = complex(LAM.value)
        il = 1j * lam
        for (x, y) in [(0.2, 0.9), (-1.0, 0.5)]:
            want = 1 + 2 / il + (1 - np.exp(1j * lam * (x - y))) / il ** 2
            got = complex(g.evaluate(np.array([x, y])))
            assert got == pytest.approx(want, abs=1e-12)


class TestLinearity:
    @given(rational_rapidities(2), rational_rapidities(2), coupling_values)
    @settings(max_examples=10, deadline=None)
    def test_linear_in_input(self, ra, rb, c):
        wa = build_bethe(ra, c)
        wb = build_bethe(rb, c)
        scale = exact(2, F(-1, 3))
        combo = wa.canonical + wb.canonical.scale(scale)
        lhs = aop.apply_A(LAM, combo, c.c)
        rhs = aop.apply_A(LAM, wa.canonical, c.c) \
            + aop.apply_A(LAM, wb.canonical, c.c).scale(scale)
        assert (lhs - rhs).is_empty()

    def test_zero_coupling_is_identity(self):
        w = build_bethe(RapiditySet.of([F(-1), F(2)]), Coupling(F(1)))
        g = aop.apply_A(LAM, w.canonical, 0)
        assert (g - w.canonical).is_empty()


class TestBoundaryValueProblem:
    def test_single_particle_scalar_identity(self):
        k, c = F(1, 2), F(2)
        w = build_bethe(RapiditySet.of([k]), Coupling(c))
        f = w.canonical
        g = aop.apply_A(LAM, f, c)
        pde, boundary = aop.bvp_residual(LAM, f, g, c)
        assert pde.is_empty() and boundary == []

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_bethe_input(self, n):
        raps = RapiditySet.of(RAPIDITIES[:n])
        w = build_bethe(raps, Coupling(F(5, 4)))
        f = w.canonical
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
        g = aop.apply_A(LAM, f_poly, c)
        _, boundary = aop.bvp_residual(LAM, f_poly, g, c)
        assert all(b.is_empty() for b in boundary)

    @given(rational_rapidities(2), rational_rapidities(2), coupling_values,
           st.integers(-3, 3), st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_bracket_preservation_on_bracketed_inputs(self, ra, rb, c, pre, qim):
        wa = build_bethe(ra, c)
        wb = build_bethe(rb, c)
        combo = wa.canonical + wb.canonical.scale(exact(pre, qim))
        assert aop.pair_bracket_residual(combo, c.c) == 0.0
        g = aop.apply_A(LAM, combo, c.c)
        assert aop.pair_bracket_residual(g, c.c) == 0.0

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=20, deadline=None)
    def test_boundary_brackets_the_difference_once(self, n, data):
        """The boundary part equals the difference of the two brackets,
        h2(g) - h2(f), on unrelated sums f and g: the same exact values
        and frequency unit, and in FLOAT the same to rounding of the two
        brackets.  The common denominator of the bracket of g - f may be
        a multiple of that of the difference of brackets, every
        coefficient scaled alike."""
        f, g = data.draw(exact_sums(n)), data.draw(exact_sums(n))
        c = data.draw(coupling_values).c
        for f, g, c in ((f, g, c), (f.to_float(), g.to_float(), float(c))):
            _, boundary = aop.bvp_residual(LAM, f, g, c)
            assert len(boundary) == n - 1
            for j, got in enumerate(boundary, start=1):
                bg = boundary_residual_h2(g, c, j)
                bf = boundary_residual_h2(f, c, j)
                want = bg - bf
                if f.field is EXACT:
                    assert got.unit == want.unit
                    assert got.terms == want.terms
                else:
                    scale = max(bg.max_coeff(), bf.max_coeff())
                    assert (got - want).max_coeff() <= 1e-13 * scale


def reference_numeric_point(lam: complex, w, point) -> complex:
    """The adaptive oracle that the fixed panels replaced: each defining
    integral as two real ``scipy.integrate.quad`` passes, the {x_1, x_2}
    subset as nested passes, the tails cut at x + 45/|Im lambda|."""
    x = [float(v) for v in point]
    c = float(w.coupling.c)
    cut = 45.0 / -lam.imag

    def quad_c(fn, a, b):
        value = functools.cache(fn)   # the two passes share their nodes
        kw = dict(epsabs=1e-13, epsrel=1e-9, limit=300)
        return complex(integrate.quad(lambda t: value(t).real, a, b, **kw)[0],
                       integrate.quad(lambda t: value(t).imag, a, b, **kw)[0])

    def f_at(*args):
        return w.evaluate(list(args))

    def kernel(i, xi):
        return np.exp(1j * lam * (x[i] - xi))

    total = f_at(*x)
    if len(x) == 1:
        return total + c * quad_c(lambda t: kernel(0, t) * f_at(t),
                                  x[0], x[0] + cut)
    for a, b in ((x[0], x[1]), (x[1], x[1] + cut)):
        total += c * quad_c(lambda t: kernel(0, t) * f_at(t, x[1]), a, b)
    total += c * quad_c(lambda t: kernel(1, t) * f_at(x[0], t),
                        x[1], x[1] + cut)

    def outer(xi2):
        return kernel(1, xi2) * quad_c(
            lambda xi1: kernel(0, xi1) * f_at(xi1, xi2), x[0], x[1])

    return total + c * c * quad_c(outer, x[1], x[1] + cut)


class TestNumericCrossCheck:
    def test_single_particle(self):
        w = build_bethe(RapiditySet.of([0.5]), Coupling(0.75))
        lam = 0.4 - 1.5j
        ana = complex(aop.apply_A(
            aop.SpectralParameter(lam), w.canonical,
            0.75).evaluate(np.array([0.3])))
        num = aop.apply_A_numeric_point(lam, w, [0.3])
        assert abs(ana - num) < 1e-10

    def test_two_particles(self):
        w = build_bethe(RapiditySet.of([-0.7, 1.1]), Coupling(1.25))
        lam = 0.4 - 1.5j
        ana = complex(aop.apply_A(
            aop.SpectralParameter(lam), w.canonical,
            1.25).evaluate(np.array([0.2, 0.9])))
        num = aop.apply_A_numeric_point(lam, w, [0.2, 0.9])
        assert abs(ana - num) / abs(ana) < 1e-8

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_suite_draws_agree_to_1e12(self, seed):
        # the suite's own draws; the aop suite ignores --mode.  The
        # adaptive oracle reached 3.9e-11 here (seed 10)
        records = run_aop_suite(build_config(seed=seed))
        rec, = (r for r in records if r.check_id == "aop.numeric-cross-check")
        assert rec.verdict == "pass"
        assert rec.residual <= 1e-12

    @pytest.mark.parametrize("n, point", [(1, [0.3]), (2, [0.2, 0.9])])
    def test_matches_adaptive_reference_on_fast_oscillation(self, n, point):
        # seed 3's cross-check draws, the fastest of seeds 1-20: k = 2/3 at
        # c = 10, and k = -18, -1/2 at c = 10/3
        raps, c = {1: ([F(2, 3)], F(10)), 2: ([F(-18), F(-1, 2)], F(10, 3))}[n]
        w = build_bethe(RapiditySet.of(raps, FLOAT), Coupling(float(c)))
        lam = 0.4 - 1.5j
        ref = reference_numeric_point(lam, w, point)
        num = aop.apply_A_numeric_point(lam, w, point)
        assert abs(num - ref) <= 1e-9 * abs(ref)

    def test_rule_is_shared_with_the_defect(self):
        # one cached 48-node rule on [0, 1] for the whole program
        nodes, weights = gauss_rule()
        assert nodes.size == 48 and math.isclose(weights.sum(), 1.0)
        assert gauss_rule() is gauss_rule()
        xi, wt = aop._panels(0.0, 10.0, 12.0)
        assert xi.size == 48 * 5 and math.isclose(wt.sum(), 10.0)


class TestExpansion:
    @pytest.fixture()
    def pair_state(self):
        w = build_bethe(RapiditySet.of([-0.7, 1.1]), Coupling(1.25))
        return w.canonical

    def test_constant_input_reduction(self):
        f = ExpPoly.from_terms(2, [(1.0, (0.0, 0.0))], FLOAT)
        c, lam, x, y = 1.0, -8j, 0.2, 0.9
        got = aop.expansion_partial_sum(f, c, lam, x, y, 2)
        il = 1j * lam
        want = 1 + 2 * c / il + c * c / il ** 2 \
            - c * c * np.exp(1j * lam * (x - y)) / il ** 2
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_coupling_terminates(self):
        f = ExpPoly.from_terms(2, [(1.0, (0.4, 1.3))], FLOAT)
        val = complex(f.evaluate(np.array([0.1, 0.8])))
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
        f = w.canonical
        scan = aop.nonuniformity_scan(f, 1.25, [10.0, 20.0, 40.0])
        for row in scan["rows"]:
            assert row["boundary_term"] >= row["floor"] * (1 - 1e-12)
            assert 0.05 <= row["boundary_term"] / row["retained_term"] <= 20.0
            assert row["suppressed_at_10_over_t"] == pytest.approx(
                math.exp(-9.0) * row["boundary_term"], rel=1e-9)

    def test_integrated_contribution_one_order_down(self):
        w = build_bethe(RapiditySet.of([-0.7, 1.1]), Coupling(1.25))
        f = w.canonical
        scan = aop.nonuniformity_scan(f, 1.25, [10.0, 20.0, 40.0])
        vals = [r["integrated_over_unit_separation"] * r["t"] ** 3
                for r in scan["rows"]]
        assert max(vals) / min(vals) < 1.2
