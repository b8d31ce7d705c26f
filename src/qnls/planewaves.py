"""Exact algebra of plane-wave sums on ordered regions.

The N-particle eigenfunctions of the delta-interacting Bose gas are, on
the fundamental region x_1 < ... < x_N, finite sums of plane waves

    chi(x) = sum_P (-1)^P  prod_{j>k} (l_{Pj} - l_{Pk} - i c)  exp(i sum_n x_n l_{Pn}),

where P runs over permutations of the rapidities l_1..l_N and the sign
inside the pair product is the one valid on the fundamental region.
Everywhere else the wavefunction is the symmetric extension (sort the
point, evaluate the canonical form).

``ExpPoly`` stores such sums: a term is (coefficient, frequency vector)
meaning coeff * exp(i * sum_n freq_n * x_n).  With rational rapidities
and coupling every operation here (derivatives, boundary restrictions,
linear combinations) closes over complex-rational coefficients, so
eigenvalue and boundary identities are checked as exact equalities with
zero rather than against tolerances.

Both fields store a sum the same way: a term is keyed on the flat tuple
(re_1, im_1, ..., re_N, im_N) of its frequency vector in units of
1/``unit``, and its coefficient is read over ``den``, shared by the sum.
Exact sums are held on Python integers.  Every identity checked here is
homogeneous in (k, c, d/dx): rapidities, coupling and derivatives all
carry dimension 1/length.  Measuring lengths in units of D, the least
common denominator of the rapidities and the coupling, makes them all
Gaussian integers, so an exact sum has ``unit`` D, int keys and
Gaussian-integer coefficients (``GaussInt``) over ``den`` Q.  A
constant-coefficient operator that is a homogeneous polynomial of
degree d (a charge, a pair bracket, a derivative) is evaluated on the
integer frequencies and multiplies Q by D^d; sums and differences first
bring both operands to a common D and Q.  No gcd is taken on the way,
so a cancellation is an exact cancellation of integers.  Sums in the
``FLOAT`` field have ``unit = den = 1``, float keys and ``complex``
coefficients.  ``GaussInt`` and ``complex`` both read as
``real``/``imag``, so one key layout and two coefficient types serve
both fields.  ``terms`` presents field scalars (``ExactComplex`` or
``complex``) sorted by frequency; ``from_terms``, ``evaluate``,
``to_float`` and the JSON documents convert at the edge.

A weight (``weighted``, ``differentiate``) may use only +, -, * and **
by a non-negative int, and ``z[0] * 0`` for a zero of the right type:
no comparison, no ``bool`` and no branch on a term's value.  An exact
pass then runs once on columns: z_n and the coefficients are single
``GaussInt``s whose parts are numpy object arrays of Python ints, one
entry per term (int64 would overflow: N = 7 coefficients pass 2**63).
FLOAT passes stay one call per term, because complex ndarray columns
round differently: they moved a float residual from 0.0 to 3.3e-19.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DegenerateRapidities, SizeLimit
from .exact import EXACT, FLOAT, ExactComplex, Field

MAX_PARTICLES = 8

# Relative tolerance used to consolidate float-mode frequency vectors.
FLOAT_MERGE_RTOL = 1e-12


class GaussInt:
    """Gaussian integer real + i*imag on Python ints.

    The coefficient type of exact sums and the value their weights
    receive for i*freq; it mixes with Python ints only.  Its parts read
    as ``real``/``imag``, like those of ``complex``, the coefficient
    type of FLOAT sums.  The parts may also be numpy object arrays of
    Python ints, one entry per term: +, -, * and ** then act entrywise,
    which is how an exact weight runs on all terms at once.
    """

    __slots__ = ("real", "imag")

    def __init__(self, real: int = 0, imag: int = 0):
        self.real = real
        self.imag = imag

    def __add__(self, other):
        if type(other) is GaussInt:
            return GaussInt(self.real + other.real, self.imag + other.imag)
        return GaussInt(self.real + other, self.imag)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is GaussInt:
            return GaussInt(self.real - other.real, self.imag - other.imag)
        return GaussInt(self.real - other, self.imag)

    def __rsub__(self, other):
        return GaussInt(other - self.real, -self.imag)

    def __neg__(self):
        return GaussInt(-self.real, -self.imag)

    def __mul__(self, other):
        if type(other) is GaussInt:
            a, b, c, d = self.real, self.imag, other.real, other.imag
            return GaussInt(a * c - b * d, a * d + b * c)
        return GaussInt(self.real * other, self.imag * other)

    __rmul__ = __mul__

    def __pow__(self, m: int):
        out = self if m else GaussInt(1, 0)
        for _ in range(m - 1):
            out = out * self
        return out

    def __bool__(self):
        return bool(self.real or self.imag)

    def conjugate(self) -> "GaussInt":
        return GaussInt(self.real, -self.imag)

    def __repr__(self):
        return f"GaussInt({self.real}, {self.imag})"

    @staticmethod
    def scaled(z: ExactComplex, den: int) -> "GaussInt":
        """den * z, for den a multiple of z's denominator."""
        k = den // z.d
        return GaussInt(z.a * k, z.b * k)


def _over(x: Fraction, den: int) -> int:
    """Numerator of x written over den (den a multiple of x's denominator)."""
    return x.numerator * (den // x.denominator)


@dataclass(frozen=True, eq=False)
class ExpPoly:
    """Finite sum of complex plane waves over an ordered region.

    ``data`` holds (coeff, key) pairs; a term means
    coeff / den * exp(i * freq . x), its frequencies read from the flat
    key (re_1, im_1, ..., re_N, im_N) in units of 1/``unit``.  Exact
    sums have GaussInt coefficients and int keys, in no particular
    order; FLOAT sums have complex coefficients, float keys and
    ``unit = den = 1``, and every merge leaves them sorted by key.
    Invariants: no two terms share a key and no coefficient is zero
    (exactly 0.0 in float mode).
    """

    num_vars: int
    field: Field
    data: tuple = ()
    unit: int = 1
    den: int = 1

    # -- construction --------------------------------------------------
    @staticmethod
    def from_terms(num_vars: int, terms: Iterable, field: Field) -> "ExpPoly":
        normalized = []
        for coeff, freq in terms:
            freq = tuple(field.coerce(f) for f in freq)
            if len(freq) != num_vars:
                raise ValueError("frequency vector length mismatch")
            normalized.append((field.coerce(coeff), freq))
        if field is FLOAT:
            unit = den = 1
            raw = [(c, tuple(x for w in f for x in (w.real, w.imag)))
                   for c, f in normalized]
        else:
            unit = math.lcm(*(w.denominator for _, f in normalized for w in f))
            den = math.lcm(*(c.denominator for c, _ in normalized))
            raw = [(GaussInt.scaled(c, den),
                    tuple(x * (unit // w.d) for w in f for x in (w.a, w.b)))
                   for c, f in normalized]
        return ExpPoly(num_vars, field, (), unit, den)._merged(raw)

    @staticmethod
    def zero(num_vars: int, field: Field) -> "ExpPoly":
        return ExpPoly(num_vars, field)

    def _with(self, data: tuple, num_vars: int | None = None,
              den: int | None = None) -> "ExpPoly":
        return ExpPoly(self.num_vars if num_vars is None else num_vars,
                       self.field, data, self.unit,
                       self.den if den is None else den)

    def _merged(self, raw_terms) -> "ExpPoly":
        """Combine terms with equal keys and drop zeros; FLOAT sums also
        merge nearly equal keys (``_consolidate_float``)."""
        acc: dict = {}
        for coeff, freq in raw_terms:
            prev = acc.get(freq)
            acc[freq] = coeff if prev is None else prev + coeff
        if self.field is FLOAT:
            acc = _consolidate_float(acc)
        return self._with(tuple((c, f) for f, c in acc.items() if c))

    def _recast(self, unit: int, den: int) -> "ExpPoly":
        """The same sum with frequencies in units of 1/unit and
        coefficients over den, both multiples of the current ones."""
        if unit == self.unit and den == self.den:
            return self
        fu, fd = unit // self.unit, den // self.den
        data = tuple((c * fd, tuple(x * fu for x in f)) for c, f in self.data)
        return ExpPoly(self.num_vars, self.field, data, unit, den)

    def _aligned(self, other: "ExpPoly", same_den: bool) -> tuple:
        """Both sums over a common frequency unit and, if asked, a common
        coefficient denominator (FLOAT sums already share unit and den 1)."""
        unit = math.lcm(self.unit, other.unit)
        a = self._recast(unit, math.lcm(self.den, other.den) if same_den
                         else self.den)
        b = other._recast(unit, a.den if same_den else other.den)
        return a, b

    # -- the scalar view --------------------------------------------------
    @property
    def terms(self):
        """(coeff, freq) pairs sorted by frequency, as scalars of the
        field (ExactComplex or complex), converted on first access; the
        length is available without converting."""
        return _Terms(self)

    @cached_property
    def _field_terms(self) -> tuple:
        return self._terms_in(self.field)

    def _terms_in(self, field: Field) -> tuple:
        """(coeff, freq tuple) pairs sorted by frequency, as scalars of
        the given field."""
        over, D, Q = field.over, self.unit, self.den
        return tuple((over(c.real, c.imag, Q),
                      tuple(over(f[m], f[m + 1], D)
                            for m in range(0, len(f), 2)))
                     for c, f in sorted(self.data, key=lambda t: t[1]))

    def _complex_terms(self) -> tuple:
        """The terms as complex floats, correctly rounded for exact sums."""
        return self._terms_in(FLOAT)

    @cached_property
    def complex_arrays(self) -> tuple:
        """Read-only (terms x vars) complex frequency matrix and
        coefficient vector of ``_complex_terms``, built once and shared
        by ``evaluate``, ``max_freq`` and the closed-form box integrals."""
        terms = self._complex_terms()
        freqs = np.array([f for _, f in terms], dtype=complex)
        coeffs = np.array([c for c, _ in terms], dtype=complex)
        freqs.flags.writeable = False
        coeffs.flags.writeable = False
        return freqs, coeffs

    # -- basic algebra --------------------------------------------------
    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        self._check_compatible(other)
        a, b = self._aligned(other, same_den=True)
        return a._merged(a.data + b.data)

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self + (-other)

    def __neg__(self) -> "ExpPoly":
        return self._with(tuple((-c, f) for c, f in self.data))

    def scale(self, factor) -> "ExpPoly":
        factor = self.field.coerce(factor)
        if self.field.is_zero(factor):
            return ExpPoly.zero(self.num_vars, self.field)
        den = self.den
        if self.field is EXACT:
            den *= factor.d
            factor = GaussInt(factor.a, factor.b)
        # a FLOAT product can underflow to zero; zero terms are dropped
        products = ((c * factor, f) for c, f in self.data)
        return self._with(tuple((c, f) for c, f in products if c), den=den)

    def weighted(self, weight: Callable, degree: int, *constants) -> "ExpPoly":
        """Multiply each term's coefficient by weight(z, *constants),
        where z_n = i * freq_n.

        This realizes constant-coefficient differential operators: a
        polynomial p in the per-variable derivatives acts on a plane
        wave with frequency vector w as multiplication by p(i*w).  The
        weight must be a homogeneous polynomial of total degree
        ``degree`` in z and the constants (numbers of dimension
        1/length, like the coupling); exact sums evaluate it on Gaussian
        integers in units of 1/unit, FLOAT sums on complex numbers.

        The weight may use only +, -, * and ** by a non-negative int,
        and ``z[0] * 0`` for a zero; no comparison, ``bool`` or per-term
        branch.  Exact sums call it once, on columns of all terms (see
        the module docstring); FLOAT sums call it once per term, since
        complex ndarray columns would move float residuals by round-off.
        """
        return self._map_coeffs(
            lambda c, z, *k: c * weight(z, *k), degree, constants)

    def _map_coeffs(self, fn: Callable, degree: int, constants=()) -> "ExpPoly":
        """Replace each coefficient c by fn(c, z, *constants), z_n = i*freq_n,
        fn homogeneous of the given degree in z and the constants."""
        ks = [self.field.coerce(k) for k in constants]
        pairs = range(0, 2 * self.num_vars, 2)
        if self.field is FLOAT:
            return self._merged([
                (fn(c, [1j * complex(f[m], f[m + 1]) for m in pairs], *ks), f)
                for c, f in self.data])
        unit = math.lcm(self.unit, *(k.denominator for k in ks))
        poly = self._recast(unit, self.den)
        ks = [GaussInt.scaled(k, unit) for k in ks]
        # one call on columns: GaussInts whose parts are object arrays of
        # Python ints, one entry per term (int64 would overflow at N = 7)
        terms = poly.data
        keys = np.array([f for _, f in terms], dtype=object).reshape(
            len(terms), 2 * self.num_vars)
        coeffs = GaussInt(np.array([c.real for c, _ in terms], dtype=object),
                          np.array([c.imag for c, _ in terms], dtype=object))
        out = fn(coeffs, [GaussInt(-keys[:, m + 1], keys[:, m]) for m in pairs],
                 *ks)
        # the keys stay distinct, so no merge: drop zeros, keep the order
        data = tuple((GaussInt(re, im), f) for re, im, (_, f)
                     in zip(out.real, out.imag, terms) if re or im)
        return poly._with(data, den=poly.den * unit ** degree)

    def mul(self, other: "ExpPoly") -> "ExpPoly":
        """Pointwise product; frequency vectors add termwise."""
        self._check_compatible(other)
        a, b = self._aligned(other, same_den=False)
        out = []
        for c1, f1 in a.data:
            for c2, f2 in b.data:
                out.append((c1 * c2, tuple(x + y for x, y in zip(f1, f2))))
        return a._with((), den=a.den * b.den)._merged(out)

    def conj(self) -> "ExpPoly":
        """Complex conjugate; e^{i w x} maps to e^{-i conj(w) x}, so each
        key keeps its imaginary parts and negates its real parts."""
        return self._with(tuple(
            (c.conjugate(), tuple(x if m & 1 else -x for m, x in enumerate(f)))
            for c, f in self.data))

    def _check_compatible(self, other: "ExpPoly"):
        if self.num_vars != other.num_vars or self.field is not other.field:
            raise ValueError("incompatible plane-wave sums")

    # -- calculus -------------------------------------------------------
    def differentiate(self, multi_index: Sequence[int]) -> "ExpPoly":
        """Apply prod_n (d/dx_n)^{m_n}; multiplies each coeff by prod (i w_n)^{m_n}."""
        if len(multi_index) != self.num_vars:
            raise ValueError("multi-index length mismatch")

        def derivative(coeff, z):
            for zn, m in zip(z, multi_index):
                for _ in range(m):
                    coeff = coeff * zn
            return coeff

        return self._map_coeffs(derivative, sum(multi_index))

    def substitute_equal(self, i: int, j: int) -> "ExpPoly":
        """Set x_i := x_j (1-based, i != j); frequencies merge, variable i drops.

        Exact cancellations yield the empty sum, which is how every
        boundary-condition check in this package reports success.
        """
        if i == j or not (1 <= i <= self.num_vars) or not (1 <= j <= self.num_vars):
            raise ValueError("bad variable indices")
        ii, jj = 2 * (i - 1), 2 * (j - 1)
        out = []
        for coeff, freq in self.data:
            merged = list(freq)
            merged[jj] += merged[ii]
            merged[jj + 1] += merged[ii + 1]
            del merged[ii:ii + 2]
            out.append((coeff, tuple(merged)))
        return self._with((), num_vars=self.num_vars - 1)._merged(out)

    def restrict_to_boundary(self, j: int) -> "ExpPoly":
        """Substitute x_{j+1} := x_j (1 <= j < N), the one-sided limit
        taken from the fundamental region."""
        if not (1 <= j < self.num_vars):
            raise ValueError("boundary index out of range")
        return self.substitute_equal(j + 1, j)

    # -- predicates and evaluation ---------------------------------------
    def is_empty(self) -> bool:
        return not self.data

    def max_coeff(self) -> float:
        Q = self.den
        return max((abs(complex(c.real / Q, c.imag / Q)) for c, _ in self.data),
                   default=0.0)

    def max_freq(self) -> float:
        """Largest modulus of a single frequency; 0.0 for the empty sum."""
        freqs, _ = self.complex_arrays
        return float(np.abs(freqs).max()) if freqs.size else 0.0

    def term_count(self) -> int:
        return len(self.data)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the sum at one point or a batch of points (rows)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.num_vars:
            raise ValueError("point dimension mismatch")
        if not self.data:
            vals = np.zeros(pts.shape[0], dtype=complex)
        else:
            freqs, coeffs = self.complex_arrays
            vals = np.exp(1j * pts @ freqs.T) @ coeffs
        if np.ndim(points) == 1:
            return vals[0]
        return vals

    def to_float(self) -> "ExpPoly":
        if self.field is FLOAT:
            return self
        return ExpPoly.from_terms(self.num_vars, self._complex_terms(), FLOAT)

    # -- serialization ----------------------------------------------------
    def to_json_dict(self) -> dict:
        return {"n": self.num_vars,
                "terms": [{"re": _num_json(c.real), "im": _num_json(c.imag),
                           "freq": [_freq_json(w) for w in f]}
                          for c, f in self.terms]}

    @staticmethod
    def from_json_dict(doc: dict, field: Field) -> "ExpPoly":
        """The sum a JSON document describes, in the given field."""
        terms = []
        for t in doc["terms"]:
            re, im = _num_parse(t["re"]), _num_parse(t["im"])
            coeff = ExactComplex(re, im) if field is EXACT \
                else complex(float(re), float(im))
            terms.append((coeff, tuple(_freq_parse(w) for w in t["freq"])))
        return ExpPoly.from_terms(doc["n"], terms, field)

    def __repr__(self):
        return (f"ExpPoly(n={self.num_vars}, terms={len(self.data)}, "
                f"{self.field.name})")


class _Terms(SequenceABC):
    """Read-only sequence of a sum's terms as scalars of its field."""

    __slots__ = ("_poly",)

    def __init__(self, poly: ExpPoly):
        self._poly = poly

    def __len__(self):
        return len(self._poly.data)

    def __getitem__(self, index):
        return self._poly._field_terms[index]

    def __eq__(self, other):
        if isinstance(other, SequenceABC):
            return self._poly._field_terms == tuple(other)
        return NotImplemented

    def __repr__(self):
        return repr(self._poly._field_terms)


def _consolidate_float(acc: dict) -> dict:
    """Merge float keys that agree to relative 1e-12.

    Two keys are linked when every real and imaginary part differs by
    at most the tolerance; each connected cluster becomes one term,
    keyed by its least key, with the coefficients added in key order.
    The result comes back sorted by key and does not depend on the
    order of the input.  Candidate clusters come from cutting the keys,
    one component at a time, wherever two sorted neighbours differ by
    more than the tolerance; no linked pair is ever cut apart, so the exact
    links are then resolved within each (small) candidate group.
    """
    if len(acc) < 2:
        return acc
    points = sorted(acc)
    scale = max((abs(x) for p in points for x in p), default=0.0)
    tol = FLOAT_MERGE_RTOL * max(scale, 1.0)

    groups = [list(range(len(points)))]
    for axis in range(len(points[0])):
        cut = []
        for group in groups:
            group.sort(key=lambda e: points[e][axis])
            start = 0
            for pos in range(1, len(group)):
                if points[group[pos]][axis] - points[group[pos - 1]][axis] > tol:
                    cut.append(group[start:pos])
                    start = pos
            cut.append(group[start:])
        groups = cut

    root = list(range(len(points)))

    def find(e):
        while root[e] != e:
            root[e] = root[root[e]]
            e = root[e]
        return e

    for group in groups:
        for a, b in itertools.combinations(group, 2):
            if all(abs(x - y) <= tol for x, y in zip(points[a], points[b])):
                ra, rb = find(a), find(b)
                root[max(ra, rb)] = min(ra, rb)

    sums: dict = {}
    for e, point in enumerate(points):
        rep, coeff = find(e), acc[point]
        sums[rep] = sums[rep] + coeff if rep in sums else coeff
    return {points[rep]: 0 + total for rep, total in sums.items()}


def _num_json(v):
    if isinstance(v, Fraction):
        return {"num": v.numerator, "den": v.denominator}
    return float(v)


def _freq_json(w):
    if w.imag == 0:
        return _num_json(w.real)
    return {"re": _num_json(w.real), "im": _num_json(w.imag)}


def _num_parse(v):
    if isinstance(v, dict):
        return Fraction(v["num"], v["den"])
    return v


def _freq_parse(w):
    if isinstance(w, dict) and "re" in w:
        re, im = _num_parse(w["re"]), _num_parse(w["im"])
        if isinstance(re, Fraction) or isinstance(im, Fraction):
            return ExactComplex(re, im)
        return complex(re, im)
    return _num_parse(w)


# ----------------------------------------------------------------------
# Bethe wavefunctions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Coupling:
    """Repulsive contact-interaction strength, dimension 1/length."""

    c: Fraction | float

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("coupling must be positive (repulsive regime only)")


@dataclass(frozen=True)
class RapiditySet:
    """Sorted, pairwise-distinct rapidities."""

    values: tuple

    @staticmethod
    def of(values: Sequence, field: Field | None = None) -> "RapiditySet":
        """Sorted rapidities as reals of the given field, by default the
        field of the values."""
        vals = list(values)
        field = field or Field.of(*vals)
        vals = sorted(field.real(v) for v in vals)
        if any(a == b for a, b in zip(vals, vals[1:])):
            raise DegenerateRapidities(f"coincident rapidities in {vals}")
        return RapiditySet(tuple(vals))

    def __len__(self):
        return len(self.values)

    @property
    def field(self) -> Field:
        return Field.of(*self.values)


@dataclass(frozen=True)
class BetheWavefunction:
    """Rapidities, coupling and the canonical-region plane-wave sum."""

    rapidities: RapiditySet
    coupling: Coupling
    canonical: ExpPoly

    @property
    def n(self) -> int:
        return len(self.rapidities)

    @property
    def exact(self) -> bool:
        return self.canonical.field is EXACT

    def evaluate(self, point: Sequence[float]) -> complex:
        """Symmetric extension: sort the point, evaluate the canonical
        form.  Coincident coordinates return the common one-sided limit."""
        pt = np.sort(np.asarray(point, dtype=float))
        return complex(self.canonical.evaluate(pt))

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.sort(np.asarray(points, dtype=float), axis=1)
        return self.canonical.evaluate(pts)

    def region_form(self, perm: Sequence[int]) -> ExpPoly:
        """Plane-wave sum valid on the region x_{perm[0]} < ... < x_{perm[N-1]}.

        By symmetry of the wavefunction this is the canonical form with
        its variables relabelled through the sorting permutation.
        """
        n = self.n
        if sorted(perm) != list(range(n)):
            raise ValueError("not a permutation")
        rank = [0] * n
        for pos, var in enumerate(perm):
            rank[var] = pos
        # variable v of the extension carries the canonical frequency of
        # its rank in the ordering
        poly = self.canonical
        out = [(c, tuple(x for v in range(n)
                         for x in f[2 * rank[v]:2 * rank[v] + 2]))
               for c, f in poly.data]
        return poly._with(())._merged(out)


def build_bethe(rapidities: RapiditySet, coupling: Coupling) -> BetheWavefunction:
    """Construct the canonical-region wavefunction for the given rapidities.

    On x_1 < ... < x_N each permutation P contributes
    (-1)^P prod_{j>k} (l_{Pj} - l_{Pk} - i c) exp(i sum_n x_n l_{Pn}).
    """
    n = len(rapidities)
    if n > MAX_PARTICLES:
        raise SizeLimit(f"N={n} exceeds the maximum {MAX_PARTICLES}")
    lam = list(rapidities.values)
    c = coupling.c
    field = Field.of(*lam, c)
    if field is EXACT:
        # lengths in units of D: rapidities k and coupling c become the
        # integers D*k and D*c, each pair factor the Gaussian integer
        # D*(l_{Pj} - l_{Pk}) - i*D*c, and the coefficient is their
        # product over D^(number of pairs)
        unit = math.lcm(*(Fraction(v).denominator for v in lam + [c]))
        ks = [_over(Fraction(v), unit) for v in lam]
        cd, zero, scalar = _over(Fraction(c), unit), 0, GaussInt
    else:
        unit, ks, cd = 1, [float(v) for v in lam], float(c)
        zero, scalar = 0.0, complex
    terms = []
    for perm in itertools.permutations(range(n)):
        re, im = _perm_sign(perm), 0
        for j in range(n):
            for k in range(j):
                # sgn(x_j - x_k) = +1 on the fundamental region for j > k
                a = ks[perm[j]] - ks[perm[k]]
                re, im = re * a + im * cd, im * a - re * cd
        terms.append((scalar(re, im),
                      tuple(x for m in range(n) for x in (ks[perm[m]], zero))))
    poly = ExpPoly(n, field, (), unit, unit ** (n * (n - 1) // 2))._merged(terms)
    return BetheWavefunction(rapidities, coupling, poly)


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def symmetrized_plane_wave(rapidities: RapiditySet) -> ExpPoly:
    """Plain symmetrized plane wave (all coefficients 1).

    Continuous and symmetric but not an eigenfunction of the interacting
    charges; used as the negative control in boundary-condition tests.
    """
    n = len(rapidities)
    lam = list(rapidities.values)
    terms = [(1, tuple(lam[p] for p in perm))
             for perm in itertools.permutations(range(n))]
    return ExpPoly.from_terms(n, terms, rapidities.field)

