"""Differential tests of the column passes against the per-term code
they replaced.

A weight runs once per pass, on numpy object-array columns, in both
fields.  The references below are the earlier per-term forms, kept here
as oracles:

* ``per_term_map_coeffs``: the FLOAT pass that called the weight once
  per term and then re-merged the sum (``_merged``);
* ``per_branch_apply_A``: ``apply_A`` one input term at a time, with
  the subset integral that multiplied every pending branch by 1/(i mu)
  separately and left the factor c^size to its caller
  (``pending_subset_integral``), and a rescale of every output term to
  the common denominator on its own.  Exact scalars there are
  ``GaussColumn``s with int parts; FLOAT frequencies and lambda are the
  exact values of their floats (``ExactComplex``), so each key is formed
  exactly and rounded once, and 1/(i mu) is taken of mu rounded once;
* ``per_state_interior`` and ``per_state_brackets``: the charge
  residuals one state at a time, against which the states of one tagged
  sum (``TestTaggedBatch``) are checked.

FLOAT results must match them bit for bit: same keys, same order, same
coefficient bits, the sign of a zero part included (a merge keeps it,
as the column pass, ``scale`` and negation do).

Sums of two operands with equal keys add their columns instead of
merging; they must match the merge (``merged_sum``) bit for bit too.
"""

import itertools
import math
from contextlib import contextmanager
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnls import charges as ch
from qnls import integral_operator as aop
from qnls import suites
from qnls.exact import EXACT, FLOAT, ExactComplex, exact
from qnls.planewaves import (BetheWavefunction, Coupling, ExpPoly,
                             GaussColumn, RapiditySet, build_bethe)

LAM = aop.SpectralParameter(exact(F(1, 3), -2))
COLUMN_MAP_COEFFS = ExpPoly._map_coeffs


# ----------------------------------------------------------------------
# The per-term references
# ----------------------------------------------------------------------

def per_term_map_coeffs(self, fn, degree, constants=()):
    """The FLOAT pass before the column pass: one call per term, then a
    full re-merge.  Exact sums take the column pass."""
    if self.field is not FLOAT:
        return COLUMN_MAP_COEFFS(self, fn, degree, constants)
    ks = [FLOAT.coerce(k) for k in constants]
    pairs = range(0, 2 * self.num_vars, 2)
    return self._merged([
        (fn(c, [1j * complex(f[m], f[m + 1]) for m in pairs], *ks), f)
        for c, f in zip(self.coeffs, self.keys)])


def pending_subset_integral(terms, subset, lam_v, inverse, n, weight):
    """The subset integral before each piece's coefficient was formed
    once: every pending branch multiplies by 1/(i mu) and negates its
    lower end on its own, and c^size comes last, per output term."""
    size = len(subset)
    piece_ranges = []
    for m in range(size):
        lo = subset[m]
        hi = subset[m + 1] if m + 1 < size else n
        piece_ranges.append(range(lo, hi))
    out_terms = []
    for pieces in itertools.product(*piece_ranges):
        kept = list(zip((j for j in range(n) if j not in subset),
                        (r for r in range(n) if r not in pieces)))
        for coeff, freq, den in terms:
            base_freq = [freq[0] * 0] * n
            for j, r in kept:
                base_freq[j] = freq[r]
            for idx in subset:
                base_freq[idx] = base_freq[idx] + lam_v
            pending = [(coeff, base_freq, den)]
            for q in pieces:
                mu = freq[q] - lam_v
                inv, inv_den = inverse(mu)
                new_pending = []
                for cf, bf, d in pending:
                    lower = list(bf)
                    lower[q] = lower[q] + mu
                    new_pending.append((-(cf * inv), lower, d * inv_den))
                    if q + 1 < n:
                        upper = list(bf)
                        upper[q + 1] = upper[q + 1] + mu
                        new_pending.append((cf * inv, upper, d * inv_den))
                pending = new_pending
            out_terms.extend(pending)
    return [(cf * weight[0], f, d * weight[1]) for cf, f, d in out_terms]


def per_branch_apply_A(lam, f, c):
    """apply_A term by term, each branch of each subset integral on its
    own (see the module docstring)."""
    n = f.num_vars
    field = FLOAT if FLOAT in (f.field, lam.field) else EXACT
    c_v = field.coerce(c)
    if field is EXACT:
        unit = math.lcm(f.unit, lam.value.denominator, c_v.denominator)
        poly = f._recast(unit, f.den)

        def inverse(mu):
            return (GaussColumn(-mu.imag * unit, -mu.real * unit),
                    mu.real * mu.real + mu.imag * mu.imag)

        lam_v, c_v = GaussColumn.of(lam.value, unit), GaussColumn.of(c_v, unit)
        weight_den, scalar = unit, GaussColumn
        coeffs = [GaussColumn(*c) for c in poly.coeffs]
    else:
        poly = f.to_float()

        def inverse(mu):
            return 1 / (1j * complex(mu)), 1

        def scalar(re, im):
            return ExactComplex(F(re), F(im))

        lam_f = complex(lam.value)
        lam_v, weight_den = scalar(lam_f.real, lam_f.imag), 1
        coeffs = list(poly.coeffs)
    terms = [(cf, [scalar(fr[m], fr[m + 1]) for m in range(0, 2 * n, 2)], 1)
             for cf, fr in zip(coeffs, poly.keys)]
    result_terms = list(terms)
    for size in range(1, n + 1):
        weight = c_v
        for _ in range(size - 1):
            weight = weight * c_v
        for subset in itertools.combinations(range(n), size):
            result_terms.extend(pending_subset_integral(
                terms, subset, lam_v, inverse, n, (weight, weight_den ** size)))
    den = math.lcm(*{d for _, _, d in result_terms})
    raw = []
    for coeff, freq, d in result_terms:
        if d != den:
            coeff = coeff * (den // d)
        key = tuple(x for w in freq for x in (w.real, w.imag))
        raw.append((coeff.real, coeff.imag, key) if field is EXACT
                   else (coeff, tuple(map(float, key))))
    return ExpPoly(n, field, unit=poly.unit, den=poly.den * den)._merged(raw)


@contextmanager
def references():
    with mock.patch.object(ExpPoly, "_map_coeffs", per_term_map_coeffs), \
            mock.patch.object(aop, "apply_A", per_branch_apply_A):
        yield


def layout(poly: ExpPoly) -> tuple:
    """Everything a sum stores, FLOAT coefficients as the bits of their
    parts."""
    def bits(c):
        if poly.field is FLOAT:
            return c.real.hex(), c.imag.hex()
        return c    # the (real, imag) ints of an exact entry
    return (poly.num_vars, poly.field, poly.unit, poly.den,
            [(bits(c), f) for c, f in zip(poly.coeffs, poly.keys)])


def layouts(value) -> list:
    """The layouts of a sum or of a (possibly nested) list of sums."""
    if isinstance(value, ExpPoly):
        return [layout(value)]
    return [x for item in value for x in layouts(item)]


def assert_matches_reference(compute):
    got = compute()
    with references():
        expected = compute()
    assert layouts(got) == layouts(expected)


# ----------------------------------------------------------------------
# FLOAT sums
# ----------------------------------------------------------------------

# halves make exact zeros and exact cancellations likely; the draws from
# a range give generic round-off
reals = st.one_of(st.sampled_from([x / 2 for x in range(-6, 7)]),
                  st.floats(-3, 3, allow_nan=False).map(lambda x: round(x, 6)))
couplings = st.sampled_from([0.5, 1.0, 1.5, 2.25])


@st.composite
def float_states(draw, n_min=1, n_max=4):
    n = draw(st.integers(n_min, n_max))
    values = draw(st.lists(reals, min_size=n, max_size=n, unique=True))
    c = draw(couplings)
    return build_bethe(RapiditySet.of(values, FLOAT), Coupling(c)), c


@st.composite
def float_sums(draw, n_max=4):
    """General FLOAT sums: complex coefficients and frequencies."""
    n = draw(st.integers(1, n_max))
    scalars = st.builds(complex, reals, reals)
    terms = draw(st.lists(st.tuples(scalars, st.tuples(*[scalars] * n)),
                          min_size=1, max_size=8))
    return ExpPoly.from_terms(n, terms, FLOAT)


class TestFloatWeights:
    @given(float_states(), st.sampled_from(sorted(ch.CHARGES)))
    @settings(max_examples=40, deadline=None)
    def test_charges(self, state, name):
        w, _ = state
        assert_matches_reference(lambda: ch.apply_free_part(ch.CHARGES[name], w))
        assert_matches_reference(lambda: ch.interior_eigen_residual(name, w))

    @given(float_states(n_min=2), st.data())
    @settings(max_examples=40, deadline=None)
    def test_brackets(self, state, data):
        w, c = state
        poly, n = w.canonical, w.n
        j = data.draw(st.integers(1, n - 1))
        assert_matches_reference(lambda: ch.pair_bracket(poly, c, j))
        assert_matches_reference(lambda: ch.boundary_residual_h2(poly, c, j))
        if n >= 3:
            assert_matches_reference(lambda: ch.boundary_residual_j3(poly, c, j))
        # every pair, triple and quadruple residual of the state
        assert_matches_reference(
            lambda: list(ch.all_boundary_residuals(w).values()))

    @given(float_states())
    @settings(max_examples=20, deadline=None)
    def test_bvp(self, state):
        w, c = state
        g = aop.apply_A(LAM, w.canonical, c)
        assert_matches_reference(lambda: aop.bvp_residual(LAM, w.canonical, g, c))

    @given(float_sums(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_derivatives_and_weights_on_general_sums(self, poly, data):
        n = poly.num_vars
        multi = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        k = data.draw(st.builds(complex, reals, reals))
        assert_matches_reference(lambda: poly.differentiate(multi))
        assert_matches_reference(lambda: poly.weighted(
            lambda z, a: ch.power_sum([zn - a for zn in z], 2), 2, k))
        assert_matches_reference(lambda: poly.weighted(
            lambda z: ch.elementary_symmetric(z, n) * -1, n))

    def test_empty_sum(self):
        poly = ExpPoly.zero(3, FLOAT)
        assert_matches_reference(lambda: poly.differentiate((1, 0, 2)))


# ----------------------------------------------------------------------
# One call per pass, no merge
# ----------------------------------------------------------------------

def state(n: int, field):
    values = [F(1, 2), F(-3, 4), F(5, 3), F(-2), F(7, 5)][:n]
    return build_bethe(RapiditySet.of(values, field),
                       Coupling(field.real(F(3, 2)))).canonical


@pytest.mark.parametrize("field", [EXACT, FLOAT])
def test_weight_runs_once_per_pass_and_merges_nothing(field):
    poly = state(4, field)
    calls = []

    def weight(z, c):
        # an exact z on real frequencies has the int 0 as its real part
        calls.append(len(z[0].imag if field is EXACT else z[0]))
        return c + (z[0] - z[1])

    def merged(*_args):
        raise AssertionError("a weight pass merged")

    with mock.patch.object(ExpPoly, "_merged", merged):
        out = poly.weighted(weight, 1, F(1, 2))
        derivative = poly.differentiate((1, 0, 2, 0))
    assert calls == [poly.term_count()]
    assert 0 < out.term_count() <= poly.term_count()
    assert derivative.term_count() == poly.term_count()


def test_bethe_residuals_merge_nothing_and_skip_zero_parts():
    """On an exact N = 6 Bethe state the seven interior residuals add
    two sums of equal keys, so none merges, and no product on the way to
    any residual reads a part that is zero in every term: the real part
    of each z = i * freq is the int 0, which products skip."""
    w = build_bethe(RapiditySet.of([F(1, 2), F(3, 4), F(5, 3), F(2), F(7, 5),
                                    F(1, 3)]), Coupling(F(3, 2)))
    assert all(type(z.real) is int and z.real == 0 for z in w.canonical._z)
    operands = []
    product = GaussColumn.__mul__

    def recorded(self, other):
        operands.extend([self, other])
        return product(self, other)

    def merged(*_args):
        raise AssertionError("an interior residual merged")

    with mock.patch.object(GaussColumn, "__mul__", recorded):
        with mock.patch.object(ExpPoly, "_merged", merged):
            assert all(ch.interior_eigen_residual(name, w).is_empty()
                       for name in ch.CHARGES)
        assert all(res.is_empty()
                   for res in ch.all_boundary_residuals(w).values())
    parts = [part for col in operands if type(col) is GaussColumn
             for part in (col.real, col.imag)]
    assert len(parts) > 100
    # empty columns come from scaling the restricted (empty) brackets
    assert not [part for part in parts
                if isinstance(part, np.ndarray) and part.size and not part.any()]


# ----------------------------------------------------------------------
# Sums of equal keys
# ----------------------------------------------------------------------

def merged_sum(p: ExpPoly, q: ExpPoly) -> ExpPoly:
    """p + q through ``_merged``, as every sum ran before equal keys
    skipped the merge."""
    a, b = p._aligned(q, same_den=True)
    return a._merged(itertools.chain(a._items(a.coeffs, a.keys),
                                     b._items(b.coeffs, b.keys)))


def assert_sums_match_merge(p: ExpPoly, q: ExpPoly) -> bool:
    """p + q and p - q equal the merged sums bit for bit, and merge only
    when the aligned keys differ; returns whether they were equal."""
    a, b = p._aligned(q, same_den=True)
    calls = []
    merge = ExpPoly._merged

    def counted(self, raw):
        calls.append(1)
        return merge(self, raw)

    with mock.patch.object(ExpPoly, "_merged", counted):
        got = [p + q, p - q]
    assert len(calls) == (0 if a.keys == b.keys else 2)
    assert layouts(got) == layouts([merged_sum(p, q), merged_sum(p, -q)])
    return a.keys == b.keys


@st.composite
def general_sums(draw, field):
    """Sums with complex coefficients and frequencies: z = i * freq has
    a nonzero real part."""
    n = draw(st.integers(1, 3))
    halves = st.integers(-6, 6).map(lambda k: F(k, 2))
    scalars = st.builds(exact, halves, halves) if field is EXACT \
        else st.builds(complex, reals, reals)
    terms = draw(st.lists(st.tuples(scalars, st.tuples(*[scalars] * n)),
                          min_size=1, max_size=8))
    return ExpPoly.from_terms(n, terms, field), scalars


class TestEqualKeySums:
    @given(st.sampled_from([EXACT, FLOAT]), st.integers(2, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_bethe_states(self, field, n, data):
        """A weight that zeroes the terms with first frequency l_m leaves
        fewer keys, and its sums merge; sums of the full key set do not."""
        values = data.draw(st.lists(st.fractions(-4, 4, max_denominator=4),
                                    min_size=n, max_size=n, unique=True))
        c = field.real(data.draw(st.fractions(F(1, 4), 3, max_denominator=4)))
        poly = build_bethe(RapiditySet.of(values, field), Coupling(c)).canonical
        lm = field.real(data.draw(st.sampled_from(values)))
        partial = poly.weighted(lambda z, k: z[0] - k, 1, field.i * lm)
        assert partial.term_count() < poly.term_count()
        full = [poly.scale(field.coerce(F(-3, 2))), ch.pair_bracket(poly, c, 1),
                poly.weighted(lambda z: ch.power_sum(z, 2), 2)]
        assert not any([assert_sums_match_merge(partial, q) for q in full])
        assert all([assert_sums_match_merge(p, q)
                    for p, q in itertools.combinations(full, 2)])

    @given(st.sampled_from([EXACT, FLOAT]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_general_sums(self, field, data):
        poly, scalars = data.draw(general_sums(field))
        n = poly.num_vars
        k = data.draw(scalars)
        multi = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        first = data.draw(st.sampled_from([f[0] for _, f in poly.terms]
                                          or [field.zero]))
        derived = [poly, poly.scale(k), poly.differentiate(multi),
                   poly.weighted(lambda z, a: ch.power_sum(
                       [zn - a for zn in z], 2), 2, k),
                   # zeroes the terms of that first frequency: fewer keys
                   poly.weighted(lambda z, a: z[0] - a, 1, field.i * first),
                   # exact keys in the reverse order: the same set, merged
                   ExpPoly.from_terms(n, reversed(poly.terms), field)]
        for p, q in itertools.combinations(derived, 2):
            assert_sums_match_merge(p, q)

    @given(st.lists(st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
                    min_size=1, max_size=6),
           st.lists(st.builds(complex, reals, reals), min_size=14,
                    max_size=14),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_float_keys_near_merge_tolerance(self, gaps, coeffs, rnd):
        """Neighbouring frequencies 1e-12 to 4e-12 apart: the keys of
        two sums on them agree, whatever the order of the terms, and
        their sum matches the merge."""
        freqs = [(2.0, 1.5)]
        for du, dv in gaps:
            freqs.append((freqs[-1][0] + du * 2e-12,
                          freqs[-1][1] + dv * 2e-12))
        p = ExpPoly.from_terms(2, list(zip(coeffs, freqs)), FLOAT)
        shuffled = list(zip(coeffs[len(freqs):], freqs))
        rnd.shuffle(shuffled)
        q = ExpPoly.from_terms(2, shuffled, FLOAT)
        for other in (q, p.scale(coeffs[-1]), p.weighted(lambda z: z[0], 1)):
            assert_sums_match_merge(p, other)

    def test_float_zero_parts_keep_their_sign(self):
        """A merge keeps the sign of a zero part, as the column sum does:
        -p has imaginary parts -0.0, and so do both forms of -p + -p."""
        p = -ExpPoly.from_terms(1, [(1.5, (1.0,)), (2.0, (2.0,))], FLOAT)
        assert all(math.copysign(1.0, c.imag) < 0 for c in p.coeffs)
        assert assert_sums_match_merge(p, p)
        assert all(math.copysign(1.0, c.imag) < 0 for c in (p + p).coeffs)


def test_complex_columns_are_object_arrays():
    """complex128 columns would round differently from the per-term
    call (they moved a residual from 0.0 to 3.3e-19), so the pass hands
    the weight Python complex numbers."""
    seen = []

    def weight(z):
        seen.extend([type(z[0]), z[0].dtype, type(z[0][0])])
        return z[0]

    state(2, FLOAT).weighted(weight, 1)
    assert seen == [np.ndarray, np.dtype(object), complex]


# ----------------------------------------------------------------------
# Tagged batches of states
# ----------------------------------------------------------------------

def per_state_interior(name, w):
    """``interior_eigen_residual`` as it ran state by state."""
    return ch.apply_free_part(ch.CHARGES[name], w) - w.canonical.scale(
        ch.charge_eigenvalue(name, w.rapidities))


def per_state_brackets(w):
    """``all_boundary_residuals`` as it ran state by state, the delta
    layer summed from the empty sum."""
    n, poly, c = w.n, w.canonical, w.coupling.c
    out = {f"pair[j={j}]": ch.pair_bracket(poly, c, j).restrict_to_boundary(j)
           for j in range(1, n)}
    if n >= 3:
        for j in range(1, n):
            out[f"triple[j={j}]"] = out[f"pair[j={j}]"].weighted(
                lambda z, j=j: sum((z[l] for l in range(len(z)) if l != j - 1),
                                   z[0] * 0), 1)
    if n >= 4:
        restricted = out["pair[j=1]"]
        out["quadruple[part=0]"] = restricted.weighted(
            lambda z: ch.elementary_symmetric(z[1:], 2), 2)
        delta = ExpPoly.zero(n - 2, poly.field)
        for k, j in itertools.combinations(range(3, n + 1), 2):
            delta = delta + restricted.substitute_equal(j - 1, k - 1).scale(c)
        out["quadruple[part=1]"] = delta
    return out


def as_state(poly, c):
    """Any sum as a state: the residuals read only N, the canonical sum
    and the coupling."""
    return BetheWavefunction(RapiditySet.of(range(poly.num_vars)),
                             Coupling(c), poly)


@st.composite
def batches(draw, field):
    """1 to 6 states of one N = 1..4; a state may carry a planted fault:
    amplitudes built at 1.1 c under the declared c, or one coefficient
    raised by 1.  Returns the states and their faults."""
    n = draw(st.integers(1, 4))
    values = st.fractions(-3, 3, max_denominator=6) if field is EXACT \
        else st.one_of(st.fractions(-3, 3, max_denominator=6), reals)
    states, faults = [], []
    for _ in range(draw(st.integers(1, 6))):
        raps = RapiditySet.of(draw(st.lists(
            values, min_size=n, max_size=n, unique_by=field.real)), field)
        c = field.real(draw(st.sampled_from([F(1, 2), F(1), F(3, 2), F(9, 4)])))
        fault = draw(st.sampled_from([None, None, "coupling", "coefficient"]))
        poly = build_bethe(raps, Coupling(
            c * field.real(F(11, 10)) if fault == "coupling" else c)).canonical
        if fault == "coefficient":
            poly = poly + ExpPoly.from_terms(n, [(1, poly.terms[0][1])], field)
        states.append(BetheWavefunction(raps, Coupling(c), poly))
        faults.append(fault)
    return states, faults


class TestTaggedBatch:
    @given(st.sampled_from([EXACT, FLOAT]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_state_by_state(self, field, data):
        """Each state's residuals from one tagged sum are those of the
        state alone: term for term in EXACT, every coefficient bit in
        FLOAT, and so the float verdict's largest coefficient over the
        state's own scale."""
        states, faults = data.draw(batches(field))
        n = states[0].n
        names = [name for name, spec in ch.CHARGES.items()
                 if n >= spec.min_particles()]
        interior = [ch.interior_eigen_residual(name, states) for name in names]
        brackets = ch.all_boundary_residuals(states)
        assert len(brackets) == len(states)
        for s, (w, fault) in enumerate(zip(states, faults)):
            want = per_state_brackets(w)
            assert list(brackets[s]) == list(want)
            want = [per_state_interior(name, w) for name in names] \
                + list(want.values())
            got = [res[s] for res in interior] + list(brackets[s].values())
            if field is EXACT:
                assert [r.terms for r in got] == [r.terms for r in want]
                if fault and n >= 2:
                    assert any(r.term_count() for r in got)
            else:
                assert layouts(got) == layouts(want)
                scale = max(suites._state_scale(w), 1.0)
                assert [(r.max_coeff() / scale).hex() for r in got] \
                    == [(r.max_coeff() / scale).hex() for r in want]

    @given(st.sampled_from([EXACT, FLOAT]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_batch_build_matches_single_builds(self, field, data):
        """States built in one call are those built one by one: every
        bit in FLOAT, term for term in EXACT (over the batch's unit)."""
        states, _ = data.draw(batches(field))
        raps = [w.rapidities for w in states]
        couplings = [w.coupling for w in states]
        built = build_bethe(raps, couplings)
        assert [(w.rapidities, w.coupling) for w in built] \
            == list(zip(raps, couplings))
        for w, r, c in zip(built, raps, couplings):
            alone = build_bethe(r, c).canonical
            if field is EXACT:
                assert w.canonical.terms == alone.terms
            else:
                assert layout(w.canonical) == layout(alone)

    def test_float_states_merge_at_their_own_tolerance(self):
        """The restricted keys 0.3 and 0.3 + 3e-12 of ``near`` stay apart
        at its own tolerance, 1e-12; the frequencies 1e4 of ``far`` or a
        tag of 4 in the tolerance would merge them."""
        near = as_state(ExpPoly.from_terms(
            2, [(1.0, (0.3, 0.0)), (2.0, (0.1, 0.2 + 3e-12))], FLOAT), 1.0)
        far = as_state(ExpPoly.from_terms(
            2, [(1.0, (1e4, 0.5)), (1.0, (0.5, 1e4))], FLOAT), 1.0)
        small = as_state(ExpPoly.from_terms(2, [(1.0, (0.25, 0.5))], FLOAT),
                         1.0)
        assert per_state_brackets(near)["pair[j=1]"].term_count() == 2
        for batch in ([near, far], [far, near], [small] * 4 + [near]):
            got = ch.all_boundary_residuals(batch)
            for s, w in enumerate(batch):
                assert layouts(list(got[s].values())) \
                    == layouts(list(per_state_brackets(w).values()))

    def test_states_of_one_n_and_field(self):
        exact_two = build_bethe(RapiditySet.of([F(1), F(2)]), Coupling(F(1)))
        float_two = build_bethe(RapiditySet.of([1.0, 2.5]), Coupling(1.0))
        exact_three = build_bethe(RapiditySet.of([F(1), F(2), F(3)]),
                                  Coupling(F(1)))
        for batch in ([exact_two, float_two], [exact_two, exact_three]):
            with pytest.raises(ValueError):
                ch.all_boundary_residuals(batch)
            with pytest.raises(ValueError):
                ch.interior_eigen_residual("H2", batch)
            with pytest.raises(ValueError):
                build_bethe([w.rapidities for w in batch],
                            [w.coupling for w in batch])
        with pytest.raises(ValueError):     # one coupling per state
            build_bethe([exact_two.rapidities] * 2, [exact_two.coupling])

    @pytest.mark.parametrize("field", [EXACT, FLOAT])
    def test_one_state_is_the_batch_of_one(self, field):
        """A state alone and a list of it take one path, untagged."""
        w = build_bethe(RapiditySet.of([F(1, 2), F(-3, 4), F(5, 3), F(-2)],
                                       field), Coupling(field.real(F(3, 2))))
        assert ExpPoly._tagged((w.canonical,)) is w.canonical
        for name in ch.CHARGES:
            single = ch.interior_eigen_residual(name, w)
            assert layouts(single) == layouts(
                ch.interior_eigen_residual(name, [w]))
            assert layouts(single) == layouts(per_state_interior(name, w))
        single = ch.all_boundary_residuals(w)
        for other in (ch.all_boundary_residuals([w])[0], per_state_brackets(w)):
            assert layouts(list(other.values())) \
                == layouts(list(single.values()))


# ----------------------------------------------------------------------
# apply_A
# ----------------------------------------------------------------------

class TestApplyA:
    @pytest.mark.parametrize("field", [EXACT, FLOAT])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_bethe_states(self, n, field):
        f = state(n, field)
        assert_matches_reference(lambda: aop.apply_A(LAM, f, F(3, 2)))

    @given(st.integers(1, 4), st.sampled_from([EXACT, FLOAT]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_random_states(self, n, field, data):
        values = data.draw(st.lists(
            st.fractions(-4, 4, max_denominator=4), min_size=n, max_size=n,
            unique=True))
        c = data.draw(st.fractions(F(1, 4), 3, max_denominator=4))
        lam = aop.SpectralParameter(data.draw(st.builds(
            exact, st.fractions(-3, 3, max_denominator=3),
            st.fractions(-3, F(-1, 3), max_denominator=3))))
        f = build_bethe(RapiditySet.of(values, field),
                        Coupling(field.real(c))).canonical
        assert_matches_reference(lambda: aop.apply_A(lam, f, c))
