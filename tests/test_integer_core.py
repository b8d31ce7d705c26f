"""Differential tests of the integer core of exact plane-wave sums.

The reference below is the straightforward exact algebra on
``ExactComplex`` values: a sum is a dict {frequency vector: coefficient}
with rational frequencies and coefficients.  The integer core (Gaussian
integers over a shared denominator, frequencies in units of 1/D) must
give the same rational terms on random states.
"""

import itertools
from fractions import Fraction as F

import numpy as np
from hypothesis import given, settings, strategies as st

from qnls import charges as ch
from qnls.exact import EXACT, ExactComplex, exact
from qnls.planewaves import (Coupling, ExpPoly, GaussInt, RapiditySet,
                             build_bethe, symmetrized_plane_wave)

I = exact(0, 1)


# ----------------------------------------------------------------------
# ExactComplex reference
# ----------------------------------------------------------------------

def _cleaned(acc: dict) -> dict:
    return {f: c for f, c in acc.items() if not c.is_zero()}


def ref_bethe(values, c) -> dict:
    n = len(values)
    acc: dict = {}
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b]
                         for a, b in itertools.combinations(range(n), 2))
        coeff = exact((-1) ** inversions)
        for j in range(n):
            for k in range(j):
                coeff = coeff * exact(values[perm[j]] - values[perm[k]], -c)
        freq = tuple(exact(values[p]) for p in perm)
        acc[freq] = acc.get(freq, exact(0)) + coeff
    return _cleaned(acc)


def ref_weighted(ref: dict, weight) -> dict:
    return _cleaned({f: c * weight([I * w for w in f]) for f, c in ref.items()})


def ref_differentiate(ref: dict, multi_index) -> dict:
    def weight(z):
        out = exact(1)
        for zn, m in zip(z, multi_index):
            out = out * zn ** m
        return out
    return ref_weighted(ref, weight)


def ref_restrict(ref: dict, j: int) -> dict:
    """x_{j+1} := x_j, 1-based j."""
    acc: dict = {}
    for f, c in ref.items():
        merged = list(f)
        merged[j - 1] = merged[j - 1] + merged[j]
        del merged[j]
        key = tuple(merged)
        acc[key] = acc.get(key, exact(0)) + c
    return _cleaned(acc)


def as_dict(poly: ExpPoly) -> dict:
    return {f: c for c, f in poly.terms}


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=6)
couplings = st.fractions(min_value=F(1, 4), max_value=5, max_denominator=4)
constants = st.builds(exact, fractions, fractions)


@st.composite
def states(draw, n_min=1, n_max=4):
    n = draw(st.integers(n_min, n_max))
    values = sorted(draw(st.sets(fractions, min_size=n, max_size=n)))
    return values, draw(couplings)


@st.composite
def sums(draw, n_min=1, n_max=3):
    """General sums: complex-rational coefficients and frequencies."""
    n = draw(st.integers(n_min, n_max))
    terms = draw(st.lists(st.tuples(constants, st.tuples(*[constants] * n)),
                          min_size=1, max_size=6))
    ref: dict = {}
    for coeff, freq in terms:
        ref[freq] = ref.get(freq, exact(0)) + coeff
    return ExpPoly.from_terms(n, terms, EXACT), _cleaned(ref)


def weights(n):
    """(weight, degree, constants) triples valid on n variables."""
    options = [(lambda z, m=m: ch.power_sum(z, m) * -1, m, ())
               for m in range(1, 5)]
    options += [(lambda z, m=m: ch.elementary_symmetric(z, m), m, ())
                for m in range(1, n + 1)]
    options.append((lambda z, a: ch.power_sum([zn - a for zn in z], 2), 2, "k"))
    if n >= 2:
        options += [(lambda z, c, j=j: c + (z[j - 1] - z[j]), 1, "c")
                    for j in range(1, n)]
        options.append((lambda z: z[0] * z[-1], 2, ()))
    return st.sampled_from(options)


def _apply_weight(poly, ref, weight, degree, kinds, c, k):
    consts = [exact(c) if kind == "c" else k for kind in kinds]
    out = poly.weighted(weight, degree, *consts)
    expected = ref_weighted(ref, lambda z: weight(z, *consts))
    return out, expected


# ----------------------------------------------------------------------
# The core against the reference
# ----------------------------------------------------------------------

class TestAgainstReference:
    @given(states())
    @settings(max_examples=40, deadline=None)
    def test_build_bethe(self, state):
        values, c = state
        w = build_bethe(RapiditySet.of(values), Coupling(c))
        assert as_dict(w.canonical) == ref_bethe(values, c)

    @given(states(), constants, st.data())
    @settings(max_examples=60, deadline=None)
    def test_weighted(self, state, k, data):
        values, c = state
        poly = build_bethe(RapiditySet.of(values), Coupling(c)).canonical
        weight, degree, kinds = data.draw(weights(len(values)))
        out, expected = _apply_weight(poly, ref_bethe(values, c), weight,
                                      degree, kinds, c, k)
        assert as_dict(out) == expected

    @given(sums(), constants, st.data())
    @settings(max_examples=60, deadline=None)
    def test_general_sums(self, drawn, k, data):
        """Weights, derivatives, restriction and conjugation on sums with
        complex frequencies and mixed denominators."""
        poly, ref = drawn
        n = poly.num_vars
        assert as_dict(poly) == ref
        weight, degree, kinds = data.draw(weights(n))
        out, expected = _apply_weight(poly, ref, weight, degree, kinds,
                                      F(3, 7), k)
        assert as_dict(out) == expected
        multi = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        assert as_dict(poly.differentiate(multi)) == ref_differentiate(ref, multi)
        if n >= 2:
            j = data.draw(st.integers(1, n - 1))
            assert as_dict(poly.restrict_to_boundary(j)) == ref_restrict(ref, j)
        assert as_dict(poly.conj()) == _cleaned(
            {tuple(-w.conjugate() for w in f): c.conjugate()
             for f, c in ref.items()})

    @given(states(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_differentiate(self, state, data):
        values, c = state
        n = len(values)
        multi = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        poly = build_bethe(RapiditySet.of(values), Coupling(c)).canonical
        assert as_dict(poly.differentiate(multi)) \
            == ref_differentiate(ref_bethe(values, c), multi)

    @given(states(n_min=2), st.data())
    @settings(max_examples=40, deadline=None)
    def test_restriction(self, state, data):
        values, c = state
        j = data.draw(st.integers(1, len(values) - 1))
        poly = build_bethe(RapiditySet.of(values), Coupling(c)).canonical
        ref = ref_bethe(values, c)
        assert as_dict(poly.restrict_to_boundary(j)) == ref_restrict(ref, j)
        bracket = ch.pair_bracket(poly, c, j).restrict_to_boundary(j)
        assert bracket.is_empty()
        assert not ref_restrict(ref_weighted(
            ref, lambda z: exact(c) + (z[j - 1] - z[j])), j)

    @given(states(), states(), constants)
    @settings(max_examples=40, deadline=None)
    def test_linear_combination_across_units(self, s1, s2, factor):
        """Sums over different frequency units and denominators."""
        (v1, c1), (v2, c2) = s1, s2
        if len(v1) != len(v2):
            v2 = v1
        p = build_bethe(RapiditySet.of(v1), Coupling(c1)).canonical
        q = symmetrized_plane_wave(RapiditySet.of(v2))
        combo = p - q.scale(factor)
        expected: dict = dict(ref_bethe(v1, c1))
        for perm in itertools.permutations(v2):
            key = tuple(exact(x) for x in perm)
            expected[key] = expected.get(key, exact(0)) - factor
        assert as_dict(combo) == _cleaned(expected)
        assert as_dict(combo.conj().conj()) == as_dict(combo)

    def test_terms_are_rational_and_sorted(self):
        p = ExpPoly.from_terms(2, [(exact(1, F(1, 3)), (F(5, 2), F(-1, 3))),
                                   (F(2, 7), (F(-1, 2), exact(0, 1))),
                                   (3, (F(-1, 2), F(1, 6)))], EXACT)
        assert [f for _, f in p.terms] == [
            (exact(F(-1, 2)), exact(0, 1)),
            (exact(F(-1, 2)), exact(F(1, 6))),
            (exact(F(5, 2)), exact(F(-1, 3)))]
        assert all(isinstance(c, ExactComplex) for c, _ in p.terms)
        assert p.terms[1][0] == exact(3)
        assert len(p.terms) == p.term_count() == 3


# ----------------------------------------------------------------------
# Weights on columns
# ----------------------------------------------------------------------

# parts well past 2**63, where an int64 column would overflow
big_ints = st.integers(-2 ** 70, 2 ** 70)
gauss_ints = st.builds(GaussInt, big_ints, big_ints)


def column(values) -> GaussInt:
    """One GaussInt whose parts are object arrays of Python ints."""
    return GaussInt(np.array([z.real for z in values], dtype=object),
                    np.array([z.imag for z in values], dtype=object))


def entries(col: GaussInt, count: int) -> list:
    """The (real, imag) pairs of a column; scalar parts (X ** 0 is the
    scalar 1) stand for every entry."""
    parts = [list(p) if isinstance(p, np.ndarray) else [p] * count
             for p in (col.real, col.imag)]
    assert all(len(part) == count for part in parts)
    assert all(type(x) is int for part in parts for x in part)
    return list(zip(*parts))


class TestColumns:
    """A GaussInt over object arrays, as the exact weighted pass builds
    it, agrees entry by entry with scalar GaussInt arithmetic."""

    @given(st.lists(st.tuples(gauss_ints, gauss_ints), min_size=1,
                    max_size=5), big_ints, gauss_ints)
    @settings(max_examples=60, deadline=None)
    def test_column_arithmetic_matches_scalars(self, pairs, k, g):
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        X, Y = column(xs), column(ys)
        cases = [
            (X + Y, [x + y for x, y in pairs]),
            (X - Y, [x - y for x, y in pairs]),
            (X * Y, [x * y for x, y in pairs]),
            (-X, [-x for x in xs]),
            (X + k, [x + k for x in xs]), (k + X, [k + x for x in xs]),
            (X - k, [x - k for x in xs]), (k - X, [k - x for x in xs]),
            (X * k, [x * k for x in xs]), (k * X, [k * x for x in xs]),
            (X + g, [x + g for x in xs]), (g + X, [g + x for x in xs]),
            (X - g, [x - g for x in xs]), (g - X, [g - x for x in xs]),
            (X * g, [x * g for x in xs]), (g * X, [g * x for x in xs]),
        ] + [(X ** m, [x ** m for x in xs]) for m in range(5)]
        for col, expected in cases:
            assert entries(col, len(xs)) == [(z.real, z.imag) for z in expected]

    @given(sums(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_weighted_past_int64(self, drawn, data):
        """Coefficients scaled and frequencies shifted past 2**63 stay
        exact."""
        small_poly, small = drawn
        scale, shift = exact(2 ** 64 + 1, 3), F(2 ** 64, 3)
        ref = {tuple(w + shift for w in f): c * scale for f, c in small.items()}
        poly = ExpPoly.from_terms(small_poly.num_vars,
                                  [(c, f) for f, c in ref.items()], EXACT)
        weight, degree, kinds = data.draw(weights(poly.num_vars))
        out, expected = _apply_weight(poly, ref, weight, degree, kinds,
                                      F(2 ** 65 + 3, 7), exact(2 ** 66, -5))
        assert as_dict(out) == expected

    def test_zeroed_terms_are_dropped(self):
        poly = ExpPoly.from_terms(2, [(1, (F(1, 2), 0)), (F(2, 5), (0, F(1, 2))),
                                      (3, (F(1, 2), F(1, 2)))], EXACT)
        assert (poly.unit, poly.den) == (2, 5)
        out = poly.weighted(lambda z: z[0] * z[1], 2)
        assert out.term_count() == 1
        assert as_dict(out) == {(exact(F(1, 2)), exact(F(1, 2))): exact(F(-3, 4))}
        assert out.den == 5 * 2 ** 2

    def test_all_zeroed_is_the_empty_sum_over_den_unit_degree(self):
        poly = ExpPoly.from_terms(1, [(F(2, 5), (F(1, 2),)), (1, (1,))], EXACT)
        out = poly.weighted(lambda z, k: (z[0] - k) * 0, 1, F(1, 3))
        assert out.is_empty()
        assert (out.unit, out.den) == (6, 5 * 6)


class TestTangentialCommutation:
    """Derivatives along the hyperplane x_{j+1} = x_j commute with the
    restriction to it."""

    @given(states(n_min=2), st.data())
    @settings(max_examples=40, deadline=None)
    def test_restriction_commutes(self, state, data):
        values, c = state
        n = len(values)
        j = data.draw(st.integers(1, n - 1))
        multi = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        multi[j - 1] = multi[j] = 0
        poly = build_bethe(RapiditySet.of(values), Coupling(c)).canonical
        lhs = poly.differentiate(multi).restrict_to_boundary(j)
        rhs = poly.restrict_to_boundary(j).differentiate(multi[:j] + multi[j + 1:])
        assert (lhs - rhs).is_empty()
        # d_j + d_{j+1} is the derivative along the merged coordinate
        along = [0] * n
        along[j - 1] = 1
        across = [0] * n
        across[j] = 1
        lhs = (poly.differentiate(along) + poly.differentiate(across)) \
            .restrict_to_boundary(j)
        rhs = poly.restrict_to_boundary(j).differentiate(along[:j] + along[j + 1:])
        assert (lhs - rhs).is_empty()


def test_seven_particle_identities_exact():
    values = [F(-15), F(-5), F(-13, 4), F(-3), F(1), F(7, 6), F(16)]
    w = build_bethe(RapiditySet.of(values), Coupling(F(7)))
    assert w.canonical.term_count() == 5040
    for name in ch.CHARGES:
        assert ch.interior_eigen_residual(name, w).is_empty(), name
    residuals = ch.all_boundary_residuals(w)
    assert len(residuals) == 6 + 6 + 2
    for key, res in residuals.items():
        assert res.is_empty(), key
