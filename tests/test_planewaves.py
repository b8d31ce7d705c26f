"""Plane-wave algebra: construction, symmetric extension, restrictions."""

import cmath
import itertools
import json
import math
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnls import charges as ch
from qnls import integral_operator as aop
from qnls.errors import DegenerateRapidities, SizeLimit
from qnls.exact import EXACT, FLOAT, ExactComplex, exact
from qnls.planewaves import (BetheWavefunction, Coupling, ExpPoly,
                             RapiditySet, build_bethe, symmetrized_plane_wave)


def rational_rapidities(n):
    return st.sets(
        st.fractions(min_value=-6, max_value=6, max_denominator=5),
        min_size=n, max_size=n).map(lambda s: RapiditySet.of(sorted(s)))


coupling_values = st.fractions(min_value=F(1, 4), max_value=4,
                               max_denominator=4).map(Coupling)

finite_complex = st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                    allow_infinity=False)


class TestBuild:
    def test_single_particle_is_one_plane_wave(self):
        w = build_bethe(RapiditySet.of([F(3, 2)]), Coupling(F(1)))
        assert w.canonical.terms == ((exact(1), (exact(F(3, 2)),)),)

    def test_two_particle_coefficients(self):
        l1, l2, c = F(1, 2), F(2), F(3)
        w = build_bethe(RapiditySet.of([l1, l2]), Coupling(c))
        by_freq = {f: cf for cf, f in w.canonical.terms}
        assert by_freq[(exact(l1), exact(l2))] == exact(l2 - l1, -c)
        assert by_freq[(exact(l2), exact(l1))] == exact(l2 - l1, c)

    def test_three_particle_identity_permutation_coefficient(self):
        w = build_bethe(RapiditySet.of([1, 2, 3]), Coupling(1))
        by_freq = {f: cf for cf, f in w.canonical.terms}
        expected = exact(1, -1) * exact(2, -1) * exact(1, -1)
        assert by_freq[(exact(1), exact(2), exact(3))] == expected

    def test_duplicate_rapidities_rejected(self):
        with pytest.raises(DegenerateRapidities):
            RapiditySet.of([1, 1, 2])

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, F(0)])
    def test_coupling_must_be_finite_and_positive(self, c):
        with pytest.raises(ValueError, match="coupling must be"):
            Coupling(c)

    @pytest.mark.parametrize("values", [[1.0, math.nan], [math.nan, 1.0],
                                        [math.inf, 1.0], [1.0, -math.inf]])
    def test_non_finite_rapidities_rejected(self, values):
        # NaN equals no neighbour, so the coincidence test cannot see it
        with pytest.raises(ValueError, match="rapidities must be finite"):
            RapiditySet.of(values)

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            build_bethe(RapiditySet.of(list(range(9))), Coupling(1))


class TestEvaluate:
    def test_coincident_point_limit(self):
        l1, l2 = 1.0, 2.0
        w = build_bethe(RapiditySet.of([l1, l2]), Coupling(0.7))
        for x in (0.0, 0.4, -1.1):
            expected = 2.0 * (l2 - l1) * np.exp(1j * x * (l1 + l2))
            assert w.evaluate([x, x]) == pytest.approx(expected, abs=1e-12)

    def test_single_particle_at_origin(self):
        w = build_bethe(RapiditySet.of([2.5]), Coupling(1.0))
        assert w.evaluate([0.0]) == pytest.approx(1.0)

    def test_swap_invariance(self):
        w = build_bethe(RapiditySet.of([0.5, 1.5]), Coupling(2.0))
        assert w.evaluate([0.7, 0.1]) == pytest.approx(w.evaluate([0.1, 0.7]))

    @given(rational_rapidities(3), coupling_values,
           st.permutations([0, 1, 2]),
           st.lists(st.floats(-2, 2), min_size=3, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_evaluate_symmetric(self, raps, c, perm, pt):
        w = build_bethe(raps, c)
        ref = w.evaluate(pt)
        assert w.evaluate([pt[p] for p in perm]) == pytest.approx(ref, abs=1e-9)


    @given(st.integers(1, 5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_max_freq_is_largest_rational_frequency(self, n, data):
        w = build_bethe(data.draw(rational_rapidities(n)),
                        data.draw(coupling_values))
        assert w.canonical.max_freq() == max(
            abs(complex(f)) for _, freq in w.canonical.terms for f in freq)

    def test_arrays_built_once_and_read_only(self, monkeypatch):
        poly = build_bethe(RapiditySet.of([F(1, 2), F(2), F(-1, 3)]),
                           Coupling(F(3, 2))).canonical
        pts = np.array([[0.1, 0.4, 0.9], [-0.3, 0.2, 1.1]])
        first = poly.evaluate(pts)
        freqs, coeffs = poly.complex_arrays
        assert not freqs.flags.writeable and not coeffs.flags.writeable

        def rebuilt(_self):
            raise AssertionError("evaluate rebuilt the term arrays")
        monkeypatch.setattr(ExpPoly, "_complex_terms", rebuilt)
        np.testing.assert_array_equal(poly.evaluate(pts), first)

    @given(st.sampled_from([EXACT, FLOAT]), st.integers(1, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_term_reference(self, field, n, data):
        # the einsum phases, their exponentials and the sum over terms
        # against cmath term by term, within a few ulp of the terms; one
        # point alone and the same point in a batch agree as closely
        part = st.fractions(min_value=-6, max_value=6, max_denominator=7)
        scalar = st.builds(exact, part, part) if field is EXACT else \
            st.builds(complex, st.floats(-6, 6), st.floats(-6, 6))
        poly = ExpPoly.from_terms(n, data.draw(st.lists(
            st.tuples(scalar, st.tuples(*[scalar] * n)),
            min_size=1, max_size=8)), field)
        pts = np.array(data.draw(st.lists(
            st.lists(st.floats(-3, 3), min_size=n, max_size=n),
            min_size=1, max_size=5)))
        batch = poly.evaluate(pts)
        assert batch.shape == (len(pts),)
        for pt, got in zip(pts, batch):
            want, size = 0j, 0.0
            for c, freq in poly.terms:
                phase = [1j * x * complex(w) for x, w in zip(pt, freq)]
                term = complex(c) * cmath.exp(sum(phase))
                want += term
                size += abs(term) * (1.0 + sum(map(abs, phase)))
            bound = 4 * np.finfo(float).eps * size
            assert abs(got - want) <= bound
            assert abs(poly.evaluate(pt) - want) <= bound


class TestDifferentiate:
    def test_first_derivative(self):
        p = ExpPoly.from_terms(1, [(1, (F(3),))], EXACT)
        assert p.differentiate((1,)).terms == ((exact(0, 3), (exact(3),)),)

    def test_second_derivative(self):
        p = ExpPoly.from_terms(1, [(1, (F(3),))], EXACT)
        assert p.differentiate((2,)).terms == ((exact(-9), (exact(3),)),)

    def test_mixed_derivative(self):
        p = ExpPoly.from_terms(2, [(exact(2, 1), (F(2), F(5)))], EXACT)
        out = p.differentiate((1, 1))
        assert out.terms == ((exact(2, 1) * exact(-10), (exact(2), exact(5))),)

    @given(rational_rapidities(3), coupling_values)
    @settings(max_examples=15, deadline=None)
    def test_mixed_partials_commute(self, raps, c):
        p = build_bethe(raps, c).canonical
        a = p.differentiate((1, 0, 0)).differentiate((0, 2, 0))
        b = p.differentiate((0, 2, 0)).differentiate((1, 0, 0))
        assert (a - b).is_empty()

    def test_linearity(self):
        p = build_bethe(RapiditySet.of([1, 3]), Coupling(2)).canonical
        q = symmetrized_plane_wave(RapiditySet.of([F(1, 2), F(5, 2)]))
        lhs = (p + q.scale(exact(2, -1))).differentiate((1, 1))
        rhs = p.differentiate((1, 1)) + q.differentiate((1, 1)).scale(exact(2, -1))
        assert (lhs - rhs).is_empty()


class TestRestriction:
    def test_merge_frequencies(self):
        p = ExpPoly.from_terms(2, [(1, (F(1), F(2)))], EXACT)
        assert p.restrict_to_boundary(1).terms == ((exact(1), (exact(3),)),)

    def test_exact_cancellation(self):
        p = ExpPoly.from_terms(2, [(1, (F(1), F(2))), (-1, (F(2), F(1)))], EXACT)
        assert p.restrict_to_boundary(1).is_empty()

    def test_two_particle_continuity(self):
        w = build_bethe(RapiditySet.of([F(1), F(2)]), Coupling(F(3)))
        swapped = w.region_form([1, 0])
        diff = w.canonical.restrict_to_boundary(1) - swapped.restrict_to_boundary(1)
        assert diff.is_empty()

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=20, deadline=None)
    def test_continuity_across_all_hyperplanes(self, n, data):
        raps = data.draw(rational_rapidities(n))
        c = data.draw(coupling_values)
        w = build_bethe(raps, c)
        for j in range(1, n):
            perm = list(range(n))
            perm[j - 1], perm[j] = perm[j], perm[j - 1]
            diff = (w.canonical.restrict_to_boundary(j)
                    - w.region_form(perm).restrict_to_boundary(j))
            assert diff.is_empty()

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=10, deadline=None)
    def test_term_count_bound(self, n, data):
        raps = data.draw(rational_rapidities(n))
        c = data.draw(coupling_values)
        w = build_bethe(raps, c)
        assert w.canonical.term_count() <= math.factorial(n)


class TestSerialization:
    def test_schema_shape(self):
        w = build_bethe(RapiditySet.of([F(1, 2), F(2)]), Coupling(F(3, 2)))
        doc = json.loads(json.dumps(w.canonical.to_json_dict()))
        assert set(doc) == {"n", "terms"}
        assert doc["n"] == 2
        term = doc["terms"][0]
        assert set(term) == {"re", "im", "freq"}
        assert set(term["re"]) == {"num", "den"}
        assert all(set(fr) == {"num", "den"} for fr in term["freq"])

    def test_roundtrip_exact(self):
        w = build_bethe(RapiditySet.of([F(1, 3), F(2), F(7, 2)]), Coupling(F(5, 4)))
        doc = w.canonical.to_json_dict()
        back = ExpPoly.from_json_dict(doc, EXACT)
        assert (back - w.canonical).is_empty()

    def test_roundtrip_float(self):
        w = build_bethe(RapiditySet.of([0.25, 1.5]), Coupling(0.5))
        back = ExpPoly.from_json_dict(w.canonical.to_json_dict(), FLOAT)
        assert (back - w.canonical).max_coeff() <= 1e-14

    @given(st.integers(1, 3).flatmap(lambda n: st.lists(
        st.tuples(finite_complex, st.tuples(*[finite_complex] * n)),
        min_size=1, max_size=8).map(lambda terms: (n, terms))))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_float_random_sums(self, drawn):
        n, terms = drawn
        p = ExpPoly.from_terms(n, terms, FLOAT)
        doc = json.loads(json.dumps(p.to_json_dict()))
        back = ExpPoly.from_json_dict(doc, FLOAT)
        assert back.keys == p.keys and list(back.coeffs) == list(p.coeffs)


class TestFloatMerge:
    def test_non_neighbouring_duplicates_cancel(self):
        """An exact duplicate cancels; keys one rounding apart (1 and
        1 + 2.2e-16) are two keys, and their terms stay two terms."""
        p = ExpPoly.from_terms(2, [(1, (1, 3)), (5, (1, 5)),
                                   (-1, (1.0, 3))], FLOAT)
        assert p.terms == ((5 + 0j, (1 + 0j, 5 + 0j)),)
        q = ExpPoly.from_terms(2, [(1, (1, 3)), (5, (1, 5)),
                                   (-1, (1 + 2.2e-16, 3))], FLOAT)
        assert q.terms == ((1 + 0j, (1 + 0j, 3 + 0j)),
                           (5 + 0j, (1 + 0j, 5 + 0j)),
                           (-1 + 0j, (1 + 2.2e-16 + 0j, 3 + 0j)))

    def test_distinct_frequencies_kept(self):
        p = ExpPoly.from_terms(1, [(1, (1.0,)), (1, (1.0 + 1e-9,))], FLOAT)
        assert p.term_count() == 2

    def test_scale_underflow_drops_term(self):
        p = ExpPoly.from_terms(1, [(1e-200, (1.0,)), (1.0, (2.0,))], FLOAT)
        scaled = p.scale(1e-200)
        assert scaled.terms == ((1e-200 + 0j, (2 + 0j,)),)
        assert scaled.scale(1e-200).term_count() == 0
        assert scaled.scale(1e-200).is_empty()

    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                              st.integers(-4, 4).filter(bool)),
                    min_size=1, max_size=12),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_order_and_small_perturbations(self, raw, rnd):
        """Well-separated frequencies, repeated exactly, merge to the same
        sum in any order."""
        terms = [(complex(coeff), (complex(a), complex(b)))
                 for a, b, coeff in raw]
        shuffled = terms[:]
        rnd.shuffle(shuffled)
        ref = ExpPoly.from_terms(2, terms, FLOAT)
        got = ExpPoly.from_terms(2, shuffled, FLOAT)
        assert got.term_count() == ref.term_count()
        for c_ref, f_ref in ref.terms:
            assert [c for c, f in got.terms if f == f_ref] \
                == [pytest.approx(c_ref, abs=1e-9)]


class TestExactComplex:
    def test_field_operations(self):
        a = exact(F(1, 2), F(-3))
        b = exact(F(2), F(1, 5))
        assert (a * b) / b == a
        assert a + (-a) == 0
        assert (a / b) * b - a == exact(0)

    def test_hash_consistency(self):
        assert hash(exact(F(2, 4), 0)) == hash(exact(F(1, 2), 0))
        assert exact(F(2, 4)) == F(1, 2)

    def test_power(self):
        assert exact(0, 1) ** 3 == exact(0, -1)
        assert exact(2, 1) ** 0 == 1


def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def reference_float_bethe_terms(lam, c):
    """Reference for build_bethe in FLOAT: the permutation loop on
    complex pair factors and complex frequencies, (coeff, key) per
    permutation, keys flattened the way ``from_terms`` flattens complex
    frequencies."""
    n = len(lam)
    minus_ic = complex(0.0, -float(c))
    terms = []
    for perm in itertools.permutations(range(n)):
        coeff = complex(_perm_sign(perm))
        for j in range(n):
            for k in range(j):
                coeff = coeff * (complex(lam[perm[j]] - lam[perm[k]]) + minus_ic)
        freq = [complex(lam[perm[m]]) for m in range(n)]
        terms.append((coeff, tuple(x for w in freq for x in (w.real, w.imag))))
    return terms


def bits(terms):
    """Every float of (complex coeff, float key) terms, as hex strings,
    so that == compares bit patterns, signed zeros included."""
    return [((c.real.hex(), c.imag.hex()), tuple(x.hex() for x in f))
            for c, f in terms]


def assert_float_layout(poly):
    """FLOAT invariants: unit = den = 1, keys are tuples of 2N floats
    (sorted after every merge), coefficients nonzero complex."""
    assert poly.field is FLOAT and poly.unit == poly.den == 1
    keys = list(poly.keys)
    assert all(len(f) == 2 * poly.num_vars for f in keys)
    assert all(type(x) is float for f in keys for x in f)
    assert poly.coeffs.dtype == object and len(poly.coeffs) == len(keys)
    assert all(type(c) is complex and c != 0 for c in poly.coeffs)
    assert len(set(keys)) == len(keys)
    assert keys == sorted(keys)


def assert_close(exact_poly, float_poly, rel=1e-12):
    """Same term count, and each exact term matched by exactly one float
    term whose key and coefficient are within rel of the largest key
    entry and coefficient."""
    a, b = [list(zip(p.coeffs, p.keys))
            for p in (exact_poly.to_float(), float_poly)]
    assert len(a) == len(b)
    if not a:
        return
    f_tol = rel * max(1.0, max(abs(x) for _, f in a for x in f))
    c_tol = rel * max(abs(c) for c, _ in a)
    for ca, fa in a:
        near = [cb for cb, fb in b
                if all(abs(x - y) <= f_tol for x, y in zip(fa, fb))]
        assert len(near) == 1 and abs(ca - near[0]) <= c_tol


# coefficients and imaginary frequency parts are dyadic, so the float
# path rounds only real frequency parts and the 1/(i mu) of apply_A, and
# an exact cancellation is an exact cancellation in floats too
dyadic = st.builds(lambda a, k: F(a, 2 ** k), st.integers(-12, 12),
                   st.integers(0, 3))
dyadic_complex = st.builds(exact, dyadic, dyadic)
real_parts = st.fractions(min_value=-6, max_value=6, max_denominator=7)


def rational_sums(n, max_terms=4):
    freq = st.tuples(*[st.builds(exact, real_parts, dyadic)] * n)
    coeff = dyadic_complex.filter(lambda z: not z.is_zero())
    return st.lists(st.tuples(coeff, freq), min_size=1,
                    max_size=max_terms).map(
        lambda terms: ExpPoly.from_terms(n, terms, EXACT))


def single_real_term(n):
    """One term with pairwise-distinct real frequencies: a function
    continuous across no boundary, so apply_A cancels no terms."""
    return st.tuples(dyadic_complex.filter(lambda z: not z.is_zero()),
                     st.lists(real_parts, min_size=n, max_size=n,
                              unique=True)).map(
        lambda t: ExpPoly.from_terms(n, [(t[0], t[1])], EXACT))


OPERATIONS = ("add", "sub", "scale", "weighted", "differentiate",
              "substitute_equal", "mul", "region_form", "apply_A")


def draw_operation(op, n, data):
    """(operation on a sum of either field, its exact operand)."""
    positive = dyadic.filter(lambda x: x > 0)
    p = data.draw(rational_sums(n))
    if op in ("add", "sub", "mul"):
        q = data.draw(rational_sums(n))
        pick = {"add": ExpPoly.__add__, "sub": ExpPoly.__sub__,
                "mul": ExpPoly.mul}[op]
        return lambda s: pick(s, q if s.field is EXACT else q.to_float()), p
    if op == "scale":
        factor = data.draw(dyadic_complex)
        return lambda s: s.scale(factor), p
    if op == "weighted":
        k, j = data.draw(positive), data.draw(st.integers(1, n - 1))
        return lambda s: ch.pair_bracket(s, k, j), p
    if op == "differentiate":
        multi = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        return lambda s: s.differentiate(multi), p
    if op == "substitute_equal":
        i, j = data.draw(st.permutations(range(1, n + 1)))[:2]
        return lambda s: s.substitute_equal(i, j), p
    if op == "region_form":
        values = data.draw(st.lists(real_parts, min_size=n, max_size=n,
                                    unique=True))
        w = build_bethe(RapiditySet.of(values), Coupling(data.draw(positive)))
        perm = data.draw(st.permutations(range(n)))
        return lambda s: BetheWavefunction(w.rapidities, w.coupling,
                                           s).region_form(perm), w.canonical
    lam = exact(data.draw(dyadic), -data.draw(positive))
    c = data.draw(positive)

    def apply_A(s):
        if s.field is EXACT:
            return aop.apply_A(aop.SpectralParameter(lam), s, c)
        return aop.apply_A(aop.SpectralParameter(complex(lam)), s, float(c))
    return apply_A, data.draw(single_real_term(n))


class TestFloatLayout:
    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
               st.floats(-20, 20, allow_nan=False), min_size=n, max_size=n,
               unique=True)),
           st.floats(1e-3, 1e3))
    @settings(max_examples=60, deadline=None)
    def test_build_bethe_matches_reference_loop(self, values, c):
        raps = RapiditySet.of(values)
        with mock.patch.object(ExpPoly, "_merged", autospec=True,
                               side_effect=ExpPoly._merged) as merged:
            w = build_bethe(raps, Coupling(c))
        raw = merged.call_args.args[1]
        assert bits(raw) == bits(reference_float_bethe_terms(raps.values, c))
        assert_float_layout(w.canonical)

    @pytest.mark.parametrize("op", OPERATIONS)
    @given(st.integers(1, 4), st.data())
    @settings(max_examples=15, deadline=None)
    def test_operations_commute_with_to_float(self, op, n, data):
        """op(p).to_float() agrees with op(p.to_float()), and the float
        result keeps the FLOAT layout."""
        if op in ("weighted", "substitute_equal"):
            n = max(n, 2)
        fn, p = draw_operation(op, n, data)
        want, got = fn(p), fn(p.to_float())
        assert want.field is EXACT
        assert_float_layout(got)
        assert_close(want, got)


class TestSubtraction:
    def test_difference_with_itself_is_empty(self):
        w = build_bethe(RapiditySet.of([F(1, 2), F(-3, 2)]), Coupling(F(1)))
        assert (w.canonical - w.canonical).is_empty()
        assert (w.canonical.to_float() - w.canonical.to_float()).is_empty()
