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


def reference_conj(poly):
    """Complex conjugate of a FLOAT sum: e^{i w x} maps to e^{-i conj(w) x},
    so each key keeps its imaginary parts and negates its real parts."""
    return poly._with(
        tuple(tuple(x if m & 1 else -x for m, x in enumerate(f))
              for f in poly.keys),
        np.array([c.conjugate() for c in poly.coeffs], dtype=object))


def reference_expm(A):
    """exp of a stack of matrices: degree-18 Taylor after scaling each to
    1-norm <= 1/2, then squaring."""
    norms = np.abs(A).sum(axis=-2).max(axis=-1)
    squarings = np.ceil(np.log2(np.maximum(2.0 * norms, 1.0))).astype(int)
    X = A / np.ldexp(1.0, squarings)[:, None, None]
    eye = np.eye(A.shape[-1])
    P = eye + X / 18
    for k in range(17, 0, -1):
        P = eye + X @ P / k
    for k in range(squarings.max(initial=0)):
        P = np.where((k < squarings)[:, None, None], P @ P, P)
    return P


def reference_ordered_box_integral(poly, L):
    """Integral of a plane-wave sum over 0 < x_1 < ... < x_n < L.

    In the gaps u_0 = L - x_n, u_1 = x_n - x_{n-1}, ..., u_n = x_1 the
    term c exp(i w.x) is c exp(sum_j B_j u_j) on the simplex sum u = L,
    with B_0 = 0 and B_j = i (w_n + ... + w_{n-j+1}).  That integral is
    the divided difference of exp(L z) at B_0..B_n, entry (0, n) of
    expm(L Z) for Z upper bidiagonal with diagonal B and unit
    superdiagonal (McCurdy, Ng and Parlett, Math. Comp. 43 (1984)); one
    batched expm covers every term.
    """
    if not poly.keys:
        return 0j
    freqs, coeffs = poly.complex_arrays
    n = poly.num_vars
    diag = np.arange(n + 1)
    Z = np.zeros((len(coeffs), n + 1, n + 1), dtype=complex)
    Z[:, diag[1:], diag[1:]] = 1j * L * np.cumsum(freqs[:, ::-1], axis=1)
    Z[:, diag[:-1], diag[1:]] = L
    return complex(coeffs @ reference_expm(Z)[:, 0, n])


def reference_box_pair_overlap(f, g, L):
    """The N!^2 contact element: both states restricted to each boundary
    x_{p+1} = x_p, conj(f) g formed term by term and merged, and every
    merged term integrated over the ordered box."""
    total = 0j
    for p in range(1, f.n):
        df = f.canonical.restrict_to_boundary(p).to_float()
        dg = g.canonical.restrict_to_boundary(p).to_float()
        total += reference_ordered_box_integral(reference_conj(df).mul(dg), L)
    return math.factorial(f.n) // 2 * total


def reference_box_norm_sq(f, L):
    chi = f.canonical.to_float()
    return math.factorial(f.n) * reference_ordered_box_integral(
        reference_conj(chi).mul(chi), L).real


def exact_copy(w):
    """The same Bethe state in the EXACT field (floats are rationals), so
    that a restriction to a boundary cancels exactly."""
    return build_bethe(RapiditySet.of([F(v) for v in w.rapidities.values]),
                       Coupling(F(w.coupling.c)))


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


def reference_boundary_residuals(poly, coupling):
    """The residuals of ``all_boundary_residuals`` in the order the
    brackets are written: each tangential layer weights the unrestricted
    pair bracket, which is then restricted; the quadruple delta layer
    restricts the restricted pair bracket at j = 1 once more."""
    n = poly.num_vars
    brackets = {j: ch.pair_bracket(poly, coupling, j) for j in range(1, n)}
    out = {f"pair[j={j}]": bracket.restrict_to_boundary(j)
           for j, bracket in brackets.items()}
    if n >= 3:
        for j, bracket in brackets.items():
            out[f"triple[j={j}]"] = bracket.weighted(lambda z, j=j: sum(
                (z[l] for l in range(n) if l not in (j - 1, j)), z[0] * 0),
                1).restrict_to_boundary(j)
    if n >= 4:
        out["quadruple[part=0]"] = brackets[1].weighted(
            lambda z: ch.elementary_symmetric(z[2:], 2),
            2).restrict_to_boundary(1)
        delta = ExpPoly.zero(n - 2, poly.field)
        for k, j in itertools.combinations(range(3, n + 1), 2):
            delta = delta + out["pair[j=1]"].substitute_equal(
                j - 1, k - 1).scale(coupling)
        out["quadruple[part=1]"] = delta
    return out


def as_state(poly, coupling, rapidities=None):
    """Any sum as the state ``all_boundary_residuals`` takes: it reads
    only the particle count, the canonical sum and the coupling."""
    rapidities = rapidities or RapiditySet.of(range(poly.num_vars))
    return BetheWavefunction(rapidities, Coupling(coupling), poly)


def assert_same_residual(got, want, key, scale=None):
    """Bit for bit in EXACT: unit, den, keys in order and coefficients.
    In FLOAT, within 1e-13 of ``scale``, by default the reference's
    largest coefficient."""
    if want.field is EXACT:
        assert (got.unit, got.den, got.keys) \
            == (want.unit, want.den, want.keys), key
        assert [str(x) for x in got.coeffs] \
            == [str(x) for x in want.coeffs], key
    else:
        scale = want.max_coeff() if scale is None else scale
        assert (got - want).max_coeff() <= 1e-13 * scale, key


@st.composite
def exact_sums(draw, n):
    """General exact sums in n variables: complex-rational coefficients
    and frequencies from a small set, so restrictions merge terms."""
    thirds = st.integers(-4, 4).map(lambda k: F(k, 3))
    scalars = st.builds(exact, thirds, thirds)
    terms = draw(st.lists(st.tuples(scalars, st.tuples(*[thirds] * n)),
                          min_size=1, max_size=10))
    return ExpPoly.from_terms(n, terms, EXACT)


class TestEigenvalues:
    def test_quadratic_power_sum(self):
        assert ch.charge_eigenvalue("H2", RapiditySet.of([1, 2])) == 5

    def test_pair_product(self):
        assert ch.charge_eigenvalue("J2", RapiditySet.of([1, 2])) == -2

    def test_quartic_power_sum(self):
        assert ch.charge_eigenvalue("H4", RapiditySet.of([1, 2, 3])) == 98

    def test_momentum_is_imaginary(self):
        assert ch.charge_eigenvalue("H1", RapiditySet.of([1, 2])) \
            == exact(0, 3)

    def test_triple_product(self):
        assert ch.charge_eigenvalue("J3", RapiditySet.of([1, 2, 3])) \
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
        for name in ch.CHARGES:
            with pytest.raises(DomainError):
                ch.charge_eigenvalue(name, RapiditySet.of([]))


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
        assert ch.boundary_residual_h2(w.canonical, w.coupling.c, 1).is_empty()

    def test_pair_bracket_three_particles_all_planes(self):
        w = build_bethe(RapiditySet.of([1, 2, 4]), Coupling(1))
        for j in (1, 2):
            assert ch.boundary_residual_h2(w.canonical, w.coupling.c, j).is_empty()

    @given(coupling_values)
    @settings(max_examples=15, deadline=None)
    def test_pair_bracket_any_coupling(self, c):
        w = build_bethe(RapiditySet.of([F(1), F(2)]), c)
        assert ch.boundary_residual_h2(w.canonical, w.coupling.c, 1).is_empty()

    def test_triple_bracket(self):
        w = build_bethe(RapiditySet.of([1, 2, 3]), Coupling(1))
        assert ch.boundary_residual_j3(w.canonical, w.coupling.c, 1).is_empty()

    def test_triple_bracket_four_particles(self):
        w = build_bethe(RapiditySet.of([1, 2, 3, 5]), Coupling(2))
        assert ch.boundary_residual_j3(w.canonical, w.coupling.c, 2).is_empty()

    def test_triple_bracket_negative_control(self):
        single = ExpPoly.from_terms(3, [(1, (F(1), F(2), F(3)))], EXACT)
        assert not ch.boundary_residual_j3(single, F(1), 1).is_empty()

    def test_quadruple_bracket(self):
        w = build_bethe(RapiditySet.of([1, 2, 3, 4]), Coupling(1))
        residuals = ch.all_boundary_residuals(w)
        assert all(residuals[f"quadruple[part={idx}]"].is_empty()
                   for idx in (0, 1))

    def test_quadruple_bracket_other_rapidities(self):
        w = build_bethe(RapiditySet.of([-1, 0, 2, 5]), Coupling(3))
        residuals = ch.all_boundary_residuals(w)
        assert all(residuals[f"quadruple[part={idx}]"].is_empty()
                   for idx in (0, 1))

    def test_quadruple_negative_control(self):
        raps = RapiditySet.of([1, 2, 3, 4])
        free = symmetrized_plane_wave(raps)
        residuals = ch.all_boundary_residuals(as_state(free, F(1), raps))
        assert any(not residuals[f"quadruple[part={idx}]"].is_empty()
                   for idx in (0, 1))

    @given(st.integers(4, 6), st.data())
    @settings(max_examples=9, deadline=None)
    def test_quadruple_tangential_pass_matches_pair_loop(self, n, data):
        """The single e_2-weighted pass equals the per-pair loop, exactly
        in EXACT and to rounding in FLOAT, on free waves whose residual
        is not empty."""
        raps = data.draw(rational_rapidities(n))
        free = symmetrized_plane_wave(raps)
        c = data.draw(coupling_values).c
        ref = reference_j4_tangential(free, c)
        assert not ref.is_empty()
        got = ch.all_boundary_residuals(as_state(free, c, raps))
        assert got["quadruple[part=0]"].terms == ref.terms
        free_f, c_f = free.to_float(), float(c)
        ref_f = reference_j4_tangential(free_f, c_f)
        new_f = ch.all_boundary_residuals(
            as_state(free_f, c_f, raps))["quadruple[part=0]"]
        assert (new_f - ref_f).max_coeff() <= 1e-13 * ref_f.max_coeff()

    @given(st.integers(3, 6), st.booleans(), st.data())
    @settings(max_examples=16, deadline=None)
    def test_restricted_bracket_matches_restricting_last(self, n, free,
                                                         data):
        """Every residual derived from the restricted pair bracket equals
        the reference that weights the unrestricted bracket and restricts
        last: bit for bit in EXACT, to rounding in FLOAT, on free waves
        and general sums, whose triple and quadruple residuals are not
        empty."""
        c = data.draw(coupling_values).c
        poly = symmetrized_plane_wave(data.draw(rational_rapidities(n))) \
            if free else data.draw(exact_sums(n))
        for p, k in ((poly, c), (poly.to_float(), float(c))):
            want = reference_boundary_residuals(p, k)
            got = ch.all_boundary_residuals(as_state(p, k))
            assert list(got) == list(want)
            for key, res in got.items():
                assert_same_residual(res, want[key], key)
        if free:
            assert not want["triple[j=1]"].is_empty()

    @pytest.mark.parametrize("j", [0, 3])
    def test_boundary_index_out_of_range(self, j):
        """j = 0 would read z_N through a wrapped index and j = N past
        the last variable; both are refused before any pass."""
        poly = build_bethe(RapiditySet.of([1, 2, 4]), Coupling(1)).canonical
        for bracket in (ch.pair_bracket, ch.boundary_residual_h2,
                        ch.boundary_residual_j3):
            with pytest.raises(ValueError, match="boundary index out of range"):
                bracket(poly, F(1), j)

    def test_pair_bracket_negative_control(self):
        free = symmetrized_plane_wave(RapiditySet.of([1, 2, 3]))
        assert not ch.boundary_residual_h2(free, F(1), 1).is_empty()

    @given(st.integers(2, 4), st.data())
    @settings(max_examples=20, deadline=None)
    def test_all_brackets_random_states(self, n, data):
        raps = data.draw(rational_rapidities(n))
        c = data.draw(coupling_values)
        w = build_bethe(raps, c)
        for key, res in ch.all_boundary_residuals(w).items():
            assert res.is_empty(), key

    @pytest.mark.parametrize("field", [EXACT, FLOAT])
    def test_all_residuals_share_each_pair_bracket(self, field, monkeypatch):
        """One pair bracket per hyperplane, restricted once, serves its
        pair and triple residuals, and the one at j = 1 the quadruple
        residual too; all equal the reference, bit for bit in EXACT
        (every one empty).  In FLOAT each is the rounding residue of an
        exact cancellation, and the two orders round differently, so
        they agree on the scale of the state."""
        w = build_bethe(RapiditySet.of([F(1, 2), F(-3, 4), F(5, 3), F(-2),
                                        F(7, 5)], field),
                        Coupling(field.real(F(3, 2))))
        expected = reference_boundary_residuals(w.canonical, w.coupling.c)
        built, restricted = [], []
        pair_bracket = ch.pair_bracket
        monkeypatch.setattr(ch, "pair_bracket",
                            lambda *args: built.append(args[2])
                            or pair_bracket(*args))
        restrict = ExpPoly.restrict_to_boundary
        monkeypatch.setattr(ExpPoly, "restrict_to_boundary",
                            lambda self, j: restricted.append((self, j))
                            or restrict(self, j))
        got = ch.all_boundary_residuals(w)
        # one bracket per hyperplane, none rebuilt
        assert [built.count(j) for j in range(1, 5)] == [1, 1, 1, 1]
        assert len(built) == 4
        # one restriction per hyperplane, of its pair bracket: the triple
        # and quadruple layers weight the restriction (``restricted``
        # holds every sum, so no id is reused)
        calls = [(id(poly), j) for poly, j in restricted]
        assert len(set(calls)) == len(calls) == 4
        assert sorted(j for _, j in calls) == [1, 2, 3, 4]
        assert list(got) == list(expected)
        for key, res in got.items():
            assert_same_residual(res, expected[key], key,
                                 scale=w.canonical.max_coeff())
        if field is EXACT:
            assert all(res.is_empty() for res in got.values())


def reference_charge_eigenvalue(name, rapidities):
    """A charge eigenvalue as the generic symmetric polynomial of the
    field's scalars i * v, one product at a time."""
    spec = ch.CHARGES[name]
    sym = ch.power_sum if spec.kind == "power" else ch.elementary_symmetric
    vals = [rapidities.field.i * v for v in rapidities.values]
    return sym(vals, spec.degree) * spec.sign


def reference_composition_check(rapidities):
    """The composition and Newton identities on reference eigenvalues and
    on Fraction power and elementary sums."""
    ev = {name: reference_charge_eigenvalue(name, rapidities)
          for name in ch.CHARGES}
    h3 = ev["H1"] ** 3 - 3 * ev["H1"] * ev["J2"] + 3 * ev["J3"]
    h4 = (ev["H1"] ** 4 + 2 * ev["J2"] ** 2 - 4 * ev["H1"] ** 2 * ev["J2"]
          + 4 * ev["H1"] * ev["J3"] - 4 * ev["J4"])
    vals = list(rapidities.values)
    p = {m: ch.power_sum(vals, m) for m in (1, 2, 3, 4)}
    e = {m: ch.elementary_symmetric(vals, m) for m in (1, 2, 3, 4)}
    report = {
        "n": len(vals),
        "h3_composition": ev["H3"] == h3,
        "h4_composition": ev["H4"] == h4,
        "newton_p3": p[3] == e[1] ** 3 - 3 * e[1] * e[2] + 3 * e[3],
        "newton_p4": p[4] == (e[1] ** 4 - 4 * e[1] ** 2 * e[2]
                              + 2 * e[2] ** 2 + 4 * e[1] * e[3] - 4 * e[4]),
    }
    report["ok"] = all(v for k, v in report.items() if k != "n")
    return report


def mixed_rapidities(n):
    """n rationals that stay distinct as floats: small and large
    denominators, zero and negative values.  (Two rationals within an ulp
    of each other near 10^6 round to one float, which a FLOAT rapidity
    set rejects as coincident.)"""
    return st.sets(st.one_of(
        st.fractions(min_value=-6, max_value=6, max_denominator=6),
        st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                     max_denominator=10 ** 12),
        st.just(F(0))), min_size=n, max_size=n).filter(
        lambda values: len(set(map(float, values))) == n)


class TestEigenvaluesAgainstReference:
    @given(st.integers(1, 7).flatmap(mixed_rapidities))
    @example({F(0)})
    @example({F(0), F(-7, 3), F(10 ** 9 + 7, 10 ** 12)})
    @example({F(-3), F(-1, 2), F(0), F(1, 3), F(5, 4), F(7, 6), F(11)})
    @settings(max_examples=60, deadline=None)
    def test_exact_and_float_match_reference(self, values):
        raps = RapiditySet.of(values)
        floats = RapiditySet.of(values, FLOAT)
        for name in ch.CHARGES:
            got, want = (ch.charge_eigenvalue(name, raps),
                         reference_charge_eigenvalue(name, raps))
            assert type(got) is type(want)
            assert (got.a, got.b, got.d) == (want.a, want.b, want.d), name
            got, want = (ch.charge_eigenvalue(name, floats),
                         reference_charge_eigenvalue(name, floats))
            assert type(got) is complex
            assert (got.real.hex(), got.imag.hex()) \
                == (want.real.hex(), want.imag.hex()), name
        got = ch.composition_identity_check(raps)
        assert got == reference_composition_check(raps)
        assert [type(v) for v in got.values()] \
            == [int] + [bool] * (len(got) - 1)


class TestCompositions:
    def test_pair_example(self):
        rep = ch.composition_identity_check(RapiditySet.of([1, 2]))
        assert rep["ok"]
        # p3 = 9 = 27 - 18 + 0
        assert ch.charge_eigenvalue("H3", RapiditySet.of([1, 2])) \
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

    def test_rejects_float_rapidities(self):
        # the identities hold, but exact equality of rounded sums would
        # report them false
        with pytest.raises(DomainError, match="rational rapidities"):
            ch.composition_identity_check(RapiditySet.of([0.1, 0.7, 1.3]))

    def test_compositions_are_homogeneous(self):
        # every term of a composition has the composed charge's degree, so
        # all their numerators are over the same power of the denominator
        for name, terms in ch._COMPOSITIONS.items():
            assert {sum(ch.CHARGES[f].degree for f in factors)
                    for _, *factors in terms} == {ch.CHARGES[name].degree}

    @pytest.mark.parametrize("values", [[1, 2, 3], [F(-7, 2), F(1, 3), 5, 6]])
    def test_wrongly_signed_charge_breaks_a_composition(self, values,
                                                        monkeypatch):
        # the registry's sign is applied per charge before the integer
        # comparison: the reference on ExactComplex eigenvalues agrees
        raps = RapiditySet.of(values)
        monkeypatch.setitem(ch.CHARGES, "J3",
                            ch.FreeChargeSpec("elementary", 3, -1))
        got = ch.composition_identity_check(raps)
        assert got == reference_composition_check(raps)
        assert not got["h3_composition"] and not got["h4_composition"]
        assert got["newton_p3"] and got["newton_p4"] and not got["ok"]


class TestStateSums:
    def test_each_state_read_once_for_all_charges(self, monkeypatch):
        calls = []
        numerators = ch._numerators
        monkeypatch.setattr(ch, "_numerators",
                            lambda r: calls.append(r) or numerators(r))
        states = build_bethe([RapiditySet.of([1, F(5, 2), F(-1, 3), 4]),
                              RapiditySet.of([F(2, 3), 3, F(-7, 4), 0])],
                             [Coupling(1), Coupling(F(1, 2))])
        for name in ch.CHARGES:
            assert all(res.is_empty()
                       for res in ch.interior_eigen_residual(name, states))
        assert calls == [w.rapidities for w in states]

    def test_fields_kept_apart(self):
        # an exact and a float set of equal values compare equal, but each
        # keeps its own sums
        exact_set = RapiditySet.of([F(1, 2), 2, 3])
        float_set = RapiditySet.of([0.5, 2.0, 3.0])
        assert exact_set == float_set
        for name in ch.CHARGES:
            assert type(ch.charge_eigenvalue(name, exact_set)) is not complex
            assert type(ch.charge_eigenvalue(name, float_set)) is complex
            assert complex(ch.charge_eigenvalue(name, exact_set)) \
                == ch.charge_eigenvalue(name, float_set)


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

    @pytest.mark.parametrize("L", [-2.0, 0.0, math.inf, math.nan])
    @pytest.mark.parametrize("raps", [[1.0, 2.0], [1.0, 2.0, 3.0]])
    def test_rejects_box_length_outside_domain(self, raps, L):
        w = build_bethe(RapiditySet.of(raps), Coupling(0.5))
        with pytest.raises(DomainError, match="box length"):
            ch.g4_defect_scan(w, [0.1], L)

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


def reference_delta_expectations(w, L, eps):
    """``_delta_expectations`` row by row: every exponential and ``_phi``
    block is built over the rows of |chi|^2, and the delta(u) delta(u + v)
    rule runs for each ordering with one exponential per row."""
    freqs, coeffs = w.canonical.complex_arrays
    omega = (freqs[None, :, :] - freqs.conj()[:, None, :]).reshape(-1, w.n)
    weight = (coeffs.conj()[:, None] * coeffs[None, :]).ravel()
    gaps = 1j * np.cumsum(omega[:, :0:-1], axis=1)[:, ::-1]
    nodes, weights = ch.gauss_rule()
    reach = min(L, ch.DEFECT_REACH * eps)
    s = reach * nodes
    delta = np.exp(-(s / eps) ** 2) / (eps * math.sqrt(math.pi))
    d1 = reach * weights * delta
    d2 = d1 * delta
    m = L - s
    alpha = gaps[:, :1]
    ea = np.exp(alpha * s)
    if w.n == 2:
        return 2.0 * (weight @ (ea * m) @ d2).real, 0.0
    beta = gaps[:, 1:]
    eb = np.exp(beta * s)
    pair = ((ea * ch._phi(2, beta * m) + eb * ch._phi(2, alpha * m)) * m * m
            + eb * s * ch._phi(1, (alpha - beta) * s) * m) @ d2
    pa, pb, qa, qb = ea @ d1, eb @ d1, ea @ (s * d1), eb @ (s * d1)
    cross = L * pa * pb - qa * pb - pa * qb
    st_ = np.multiply.outer(s, nodes)
    dt = weights * np.exp(-(st_ / eps) ** 2) / (eps * math.sqrt(math.pi))
    for a, b in ((alpha, beta), (beta, alpha)):
        inner = np.einsum("tij,ij->ti", np.exp((a - b)[:, :, None] * st_), dt)
        cross = cross + (inner * np.exp(b * s) * s * m) @ d1
    return (2.0 * (weight @ pair).real, 2.0 * (weight @ cross).real)


def gap_exponents(w):
    """alpha and beta over the rows of |chi|^2, as ``_delta_expectations``
    forms them."""
    freqs, _ = w.canonical.complex_arrays
    omega = (freqs[None, :, :] - freqs.conj()[:, None, :]).reshape(-1, w.n)
    return 1j * (omega[:, 1] + omega[:, 2]), 1j * omega[:, 2]


def gap_differences(w):
    """alpha - beta and beta - alpha over the rows of |chi|^2."""
    alpha, beta = gap_exponents(w)
    return np.concatenate([alpha - beta, beta - alpha])


def signed_zero_state():
    """The suite's N = 3 state with every frequency of x_3 given the
    imaginary part -0.0: rows with Omega_2 = 0 and Omega_3 < 0 then have
    the gap exponent -0.0 in one ordering and +0.0 in the other."""
    w = build_bethe(RapiditySet.of([0.5, 1.5, 3.0]), Coupling(1.0))
    poly = w.canonical
    keys = tuple(f[:5] + (-0.0,) for f in poly.keys)
    return BetheWavefunction(w.rapidities, w.coupling,
                             poly._with(keys, poly.coeffs))


class TestDeltaExpectationsAgainstLoop:
    """One exponential or ``_phi`` block per distinct alpha, beta or gap
    exponent gives both floats of the per-row form bit for bit, though
    ``np.unique`` merges values that differ in the sign of a zero."""

    @staticmethod
    def states():
        rng = np.random.default_rng(11)
        yield build_bethe(RapiditySet.of([0.5, 1.5, 3.0]), Coupling(1.0))
        for _ in range(3):
            raps = np.round(rng.uniform(-3.0, 3.0, 3), 6)
            yield build_bethe(RapiditySet.of(list(raps)),
                              Coupling(float(rng.uniform(0.25, 4.0))))
        yield build_bethe(RapiditySet.of([F(1, 2), F(3, 2), F(3)]),
                          Coupling(F(1)))
        yield signed_zero_state()

    @pytest.mark.parametrize("L", [BOX_L, 3.5])
    def test_three_particles_bit_identical(self, L):
        for w in self.states():
            for m in range(3, 8):
                got = ch._delta_expectations(w, L, 2.0 ** -m)
                want = reference_delta_expectations(w, L, 2.0 ** -m)
                assert [x.hex() for x in map(float, got)] \
                    == [x.hex() for x in map(float, want)]

    def test_inputs_hold_zero_gaps_of_both_signs(self):
        """Every state has exactly zero gaps (its diagonal rows among
        them); merged equal gaps differ in the sign of a zero real part
        on the suite's state, and of the zero gap itself on the
        signed-zero state, where the one block of alpha and beta values
        also merges values whose zero real parts differ in sign."""
        for w in self.states():
            gaps = gap_differences(w)
            assert np.sum(gaps == 0) >= 2 * len(w.canonical.keys)
        suite = gap_differences(next(self.states()))
        zero_re = suite.real == 0
        assert np.signbit(suite.real[zero_re]).any()
        assert not np.signbit(suite.real[zero_re]).all()
        zero = gap_differences(signed_zero_state())
        zero = zero[zero == 0]
        assert np.signbit(zero.real).any() and not np.signbit(zero.real).all()
        values = np.concatenate(gap_exponents(signed_zero_state()))
        _, group = np.unique(values, return_inverse=True)
        signed = set(zip(group.ravel(), np.signbit(values.real)))
        assert len(signed) > len(set(group.ravel()))

    @pytest.mark.parametrize("L", [BOX_L, 3.5])
    def test_two_particles_bit_identical(self, L):
        for raps, c in (([1.0, 2.0], 0.5), ([-0.75, 1.25], 2.0)):
            w = build_bethe(RapiditySet.of(raps), Coupling(c))
            for m in range(3, 8):
                got = ch._delta_expectations(w, L, 2.0 ** -m)
                want = reference_delta_expectations(w, L, 2.0 ** -m)
                assert [x.hex() for x in map(float, got)] \
                    == [x.hex() for x in map(float, want)]


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

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
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
    """Closed-form cases of the N!^2 reference integral."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
    def test_zero_frequencies_give_simplex_volume(self, n):
        poly = ExpPoly.from_terms(n, [(1.0, (0.0,) * n)], FLOAT)
        assert reference_ordered_box_integral(poly, 1.7) == pytest.approx(
            1.7 ** n / math.factorial(n), rel=1e-13)

    @pytest.mark.parametrize("w", [0.3, -2.5, 1.0 + 0.5j])
    def test_one_variable(self, w):
        L = 1.3
        poly = ExpPoly.from_terms(1, [(2.0 - 1.0j, (w,))], FLOAT)
        expected = (2.0 - 1.0j) * (np.exp(1j * w * L) - 1.0) / (1j * w)
        assert reference_ordered_box_integral(poly, L) == pytest.approx(
            expected, rel=1e-13)

    def test_near_coincident_frequencies(self):
        # w_2 = 0 and w_1 + w_2 + w_3 = 0 make B_1 = B_2 and B_3 = B_0
        L = BOX_L
        exact_hit = ExpPoly.from_terms(3, [(1.0, (0.8, 0.0, -0.8))], FLOAT)
        near = ExpPoly.from_terms(3, [(1.0, (0.8, 1e-9, -0.8))], FLOAT)
        a = reference_ordered_box_integral(exact_hit, L)
        b = reference_ordered_box_integral(near, L)
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
        value = reference_ordered_box_integral(poly, L)
        assert abs(value - expected) <= 1e-12 * abs(expected)

    def test_empty_sum(self):
        assert reference_ordered_box_integral(ExpPoly.zero(2, FLOAT), 2.0) == 0


class TestBoxSolveAgainstReference:
    """Norms and contact elements of the subset-pair solve against the
    N!^2 reference.  The reference runs on the exact copy of each state,
    whose boundary restriction cancels exactly; on the float state it
    loses about 1e-11 relative to that cancellation at c = 1e6."""

    @pytest.mark.parametrize("c", [0.5, 1.0, 1e6])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_norms_and_contacts(self, n, c):
        ground, excited = (solved_state(qn, c)[0]
                           for qn in ground_and_excited(n))
        exact_ground, exact_excited = exact_copy(ground), exact_copy(excited)
        for w, copy in ((ground, exact_ground), (excited, exact_excited)):
            ref = reference_box_norm_sq(copy, BOX_L)
            assert abs(ch.norm_sq(w, BOX_L) - ref) <= 1e-12 * ref
        diag = reference_box_pair_overlap(exact_ground, exact_ground, BOX_L)
        off = reference_box_pair_overlap(exact_ground, exact_excited, BOX_L)
        scale = abs(diag) if n > 1 else 1.0
        assert abs(ch.pair_delta_overlap(ground, ground, BOX_L) - diag) \
            <= 1e-12 * scale
        assert abs(ch.pair_delta_overlap(ground, excited, BOX_L) - off) \
            <= 1e-12 * scale

    @pytest.mark.parametrize("L", [-1.0, 0.0, math.inf, math.nan])
    def test_rejects_box_length_outside_domain(self, L):
        # at L = -1 the norm read 3.24 and at L = 0 it read 0.0, which
        # the normalized overlap divided by
        w = build_bethe(RapiditySet.of([1.0, 2.0]), Coupling(0.5))
        for routine in (ch.pair_delta_overlap,
                        ch.normalized_pair_delta_overlap):
            with pytest.raises(DomainError, match="box length"):
                routine(w, w, L)
        with pytest.raises(DomainError, match="box length"):
            ch.norm_sq(w, L)


class TestAnalyticOracles:
    @pytest.mark.parametrize("c", [0.5, 1.0])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
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
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
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
