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
from qnls.planewaves import (Coupling, ExpPoly, GaussColumn, RapiditySet,
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
        """Weights, derivatives and restriction on sums with complex
        frequencies and mixed denominators."""
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
gauss_ints = st.builds(exact, big_ints, big_ints)


def column(values) -> GaussColumn:
    """One GaussColumn whose parts are object arrays of Python ints."""
    return GaussColumn(np.array([z.a for z in values], dtype=object),
                       np.array([z.b for z in values], dtype=object))


def entries(col: GaussColumn, count: int) -> list:
    """The (real, imag) pairs of a column; scalar parts (X ** 0 is the
    scalar 1) stand for every entry."""
    parts = [list(p) if isinstance(p, np.ndarray) else [p] * count
             for p in (col.real, col.imag)]
    assert all(len(part) == count for part in parts)
    assert all(type(x) is int for part in parts for x in part)
    return list(zip(*parts))


class TestColumns:
    """A GaussColumn over object arrays, as the exact passes build it,
    agrees entry by entry with ``ExactComplex`` arithmetic on Gaussian
    integers."""

    @given(st.lists(st.tuples(gauss_ints, gauss_ints), min_size=1,
                    max_size=5), big_ints, gauss_ints)
    @settings(max_examples=60, deadline=None)
    def test_column_arithmetic_matches_scalars(self, pairs, k, g):
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        X, Y, G = column(xs), column(ys), GaussColumn(g.a, g.b)
        cases = [
            (X + Y, [x + y for x, y in pairs]),
            (X - Y, [x - y for x, y in pairs]),
            (X * Y, [x * y for x, y in pairs]),
            (-X, [-x for x in xs]),
            (X + k, [x + k for x in xs]), (k + X, [k + x for x in xs]),
            (X - k, [x - k for x in xs]), (k - X, [k - x for x in xs]),
            (X * k, [x * k for x in xs]), (k * X, [k * x for x in xs]),
            (X + G, [x + g for x in xs]), (G + X, [g + x for x in xs]),
            (X - G, [x - g for x in xs]), (G - X, [g - x for x in xs]),
            (X * G, [x * g for x in xs]), (G * X, [g * x for x in xs]),
        ] + [(X ** m, [x ** m for x in xs]) for m in range(5)]
        for col, expected in cases:
            assert all(z.d == 1 for z in expected)
            assert entries(col, len(xs)) == [(z.a, z.b) for z in expected]
        assert list(X != 0) == [not x.is_zero() for x in xs]
        assert entries(X[1:], len(xs) - 1) == [(x.a, x.b) for x in xs[1:]]

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_int_parts_match_array_parts(self, count, data):
        """A part given as one int, the int 0 most of all, stands for that
        int in every term: each operation agrees with the column whose
        part is that int repeated in an array."""
        part = st.one_of(st.just(0), big_ints,
                         st.lists(big_ints, min_size=count, max_size=count))

        def columns():
            parts = data.draw(st.tuples(part, part))
            return (GaussColumn(*(p if isinstance(p, int)
                                  else np.array(p, dtype=object)
                                  for p in parts)),
                    GaussColumn(*(np.full(count, p, dtype=object)
                                  if isinstance(p, int)
                                  else np.array(p, dtype=object)
                                  for p in parts)))
        (X, XA), (Y, YA) = columns(), columns()
        k = data.draw(st.one_of(st.just(0), big_ints))
        pairs = [(X + Y, XA + YA), (X - Y, XA - YA), (X * Y, XA * YA),
                 (-X, -XA), (X + k, XA + k), (k + X, k + XA), (X - k, XA - k),
                 (k - X, k - XA), (X * k, XA * k), (k * X, k * XA)] \
            + [(X ** m, XA ** m) for m in range(4)]
        for col, expected in pairs:
            assert entries(col, count) == entries(expected, count)
        assert list(np.broadcast_to(X != 0, count)) == list(XA != 0)
        live = XA != 0
        for index, n in ((slice(1, None), count - 1), (live, live.sum())):
            assert entries(X[index], n) == entries(XA[index], n)

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


def ref_substitute(ref: dict, i: int, j: int) -> dict:
    """x_i := x_j, 1-based."""
    acc: dict = {}
    for f, c in ref.items():
        merged = list(f)
        merged[j - 1] = merged[j - 1] + merged[i - 1]
        del merged[i - 1]
        key = tuple(merged)
        acc[key] = acc.get(key, exact(0)) + c
    return _cleaned(acc)


def ref_combination(a: dict, b: dict, sign: int) -> dict:
    acc = dict(a)
    for f, c in b.items():
        acc[f] = acc.get(f, exact(0)) + c * sign
    return _cleaned(acc)


def ref_mul(a: dict, b: dict) -> dict:
    acc: dict = {}
    for f1, c1 in a.items():
        for f2, c2 in b.items():
            key = tuple(x + y for x, y in zip(f1, f2))
            acc[key] = acc.get(key, exact(0)) + c1 * c2
    return _cleaned(acc)


def columns(poly: ExpPoly) -> dict:
    """as_dict of a sum after checking its exact layout: distinct int
    keys, a GaussColumn of two object arrays of ints with one nonzero
    entry per key."""
    assert len(set(poly.keys)) == len(poly.keys)
    assert all(type(x) is int for f in poly.keys for x in f)
    assert isinstance(poly.coeffs, GaussColumn)
    for part in (poly.coeffs.real, poly.coeffs.imag):
        assert part.dtype == object and len(part) == len(poly.keys)
        assert all(type(x) is int for x in part)
    assert all(re or im for re, im in poly.coeffs)
    return as_dict(poly)


class TestColumnOperations:
    """Every operation on the columns agrees term for term with the
    ExactComplex dict reference, on random sums with mixed units and
    denominators."""

    @given(sums(), constants, st.data())
    @settings(max_examples=60, deadline=None)
    def test_operations_match_reference(self, drawn, factor, data):
        poly, ref = drawn
        n = poly.num_vars
        other, other_ref = data.draw(sums(n, n))
        assert columns(poly) == ref
        assert columns(-poly) == {f: -c for f, c in ref.items()}
        assert columns(poly.scale(factor)) \
            == _cleaned({f: c * factor for f, c in ref.items()})
        recast = poly._recast(poly.unit * 3, poly.den * 7)
        assert (recast.unit, recast.den) == (poly.unit * 3, poly.den * 7)
        assert columns(recast) == ref
        assert columns(poly + other) == ref_combination(ref, other_ref, 1)
        assert columns(poly - other) == ref_combination(ref, other_ref, -1)
        weight, degree, kinds = data.draw(weights(n))
        out, expected = _apply_weight(poly, ref, weight, degree, kinds,
                                      F(5, 3), factor)
        assert columns(out) == expected
        multi = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        assert columns(poly.differentiate(multi)) == ref_differentiate(ref, multi)
        if n >= 2:
            i, j = data.draw(st.permutations(range(1, n + 1)))[:2]
            assert columns(poly.substitute_equal(i, j)) == ref_substitute(ref, i, j)
        assert columns(poly.mul(other)) == ref_mul(ref, other_ref)
        back = ExpPoly.from_terms(n, poly.terms, EXACT)
        assert columns(back) == ref
        assert list(back.terms) == list(poly.terms)


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
