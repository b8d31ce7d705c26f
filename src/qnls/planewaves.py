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

Exact sums are held on Python integers.  Every identity checked here is
homogeneous in (k, c, d/dx): rapidities, coupling and derivatives all
carry dimension 1/length.  Measuring lengths in units of D, the least
common denominator of the rapidities and the coupling, makes them all
Gaussian integers.  So an exact sum stores

* ``unit`` D: each frequency is a pair of ints (a, b) meaning (a + ib)/D,
  flattened into one int tuple per frequency vector (the merge key);
* ``den`` Q: each coefficient is a Gaussian integer p + iq on Python
  ints, meaning (p + iq)/Q, with Q shared by every term of the sum.

A constant-coefficient operator that is a homogeneous polynomial of
degree d (a charge, a pair bracket, a derivative) is evaluated on the
integer frequencies and multiplies Q by D^d; sums and differences first
bring both operands to a common D and Q.  No gcd is taken on the way,
so a cancellation is an exact cancellation of integers.  The public
surface stays rational: ``terms`` presents ``ExactComplex`` coefficients
and frequencies sorted by frequency, and ``from_terms``, ``evaluate``,
``to_float`` and the JSON documents convert at the edge.  Sums in the
``FLOAT`` field keep complex coefficients and frequencies.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DegenerateRapidities, SizeLimit
from .exact import EXACT, FLOAT, ExactComplex, Field

MAX_PARTICLES_DEFAULT = 8

# Relative tolerance used to consolidate float-mode frequency vectors.
FLOAT_MERGE_RTOL = 1e-12


class GaussInt:
    """Gaussian integer re + i*im on Python ints.

    The coefficient type of exact sums and the value their weights
    receive for i*freq; it mixes with Python ints only.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: int = 0, im: int = 0):
        self.re = re
        self.im = im

    def __add__(self, other):
        if type(other) is GaussInt:
            return GaussInt(self.re + other.re, self.im + other.im)
        return GaussInt(self.re + other, self.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is GaussInt:
            return GaussInt(self.re - other.re, self.im - other.im)
        return GaussInt(self.re - other, self.im)

    def __rsub__(self, other):
        return GaussInt(other - self.re, -self.im)

    def __neg__(self):
        return GaussInt(-self.re, -self.im)

    def __mul__(self, other):
        if type(other) is GaussInt:
            a, b, c, d = self.re, self.im, other.re, other.im
            return GaussInt(a * c - b * d, a * d + b * c)
        return GaussInt(self.re * other, self.im * other)

    __rmul__ = __mul__

    def __pow__(self, m: int):
        out = self if m else GaussInt(1, 0)
        for _ in range(m - 1):
            out = out * self
        return out

    def __bool__(self):
        return bool(self.re or self.im)

    def conjugate(self) -> "GaussInt":
        return GaussInt(self.re, -self.im)

    def __repr__(self):
        return f"GaussInt({self.re}, {self.im})"

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

    ``data`` holds (coeff, freq) pairs; a term means
    coeff * exp(i * freq . x).  Exact sums store GaussInt coefficients
    over the shared denominator ``den`` and flat int frequency keys
    (re_1, im_1, ..., re_N, im_N) in units of 1/``unit``, in no
    particular order; float sums store complex coefficients and tuples
    of complex frequencies sorted by frequency.  Invariants: no two
    terms share a frequency vector and no coefficient is zero (exactly
    0.0 in float mode).
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
            return ExpPoly(num_vars, FLOAT)._merged(normalized)
        unit = math.lcm(*(w.denominator for _, f in normalized for w in f))
        den = math.lcm(*(c.denominator for c, _ in normalized))
        raw = [(GaussInt.scaled(c, den),
                tuple(x * (unit // w.d) for w in f for x in (w.a, w.b)))
               for c, f in normalized]
        return ExpPoly(num_vars, EXACT, (), unit, den)._merged(raw)

    @staticmethod
    def zero(num_vars: int, field: Field) -> "ExpPoly":
        return ExpPoly(num_vars, field)

    def _with(self, data: tuple, num_vars: int | None = None,
              den: int | None = None) -> "ExpPoly":
        return ExpPoly(self.num_vars if num_vars is None else num_vars,
                       self.field, data, self.unit,
                       self.den if den is None else den)

    def _merged(self, raw_terms) -> "ExpPoly":
        """Combine terms with equal frequency vectors and drop zeros."""
        acc: dict = {}
        for coeff, freq in raw_terms:
            prev = acc.get(freq)
            acc[freq] = coeff if prev is None else prev + coeff
        if self.field is EXACT:
            return self._with(tuple((c, f) for f, c in acc.items() if c))
        acc = _consolidate_float(acc)
        items = sorted(((c, f) for f, c in acc.items() if c),
                       key=lambda t: _freq_sort_key(t[1]))
        return self._with(tuple(items))

    def _recast(self, unit: int, den: int) -> "ExpPoly":
        """The same exact sum with frequencies in units of 1/unit and
        coefficients over den, both multiples of the current ones."""
        if unit == self.unit and den == self.den:
            return self
        fu, fd = unit // self.unit, den // self.den
        data = tuple((c * fd, tuple(x * fu for x in f)) for c, f in self.data)
        return ExpPoly(self.num_vars, EXACT, data, unit, den)

    def _aligned(self, other: "ExpPoly", same_den: bool) -> tuple:
        """Both exact sums over a common frequency unit and, if asked,
        a common coefficient denominator."""
        if self.field is FLOAT:
            return self, other
        unit = math.lcm(self.unit, other.unit)
        a = self._recast(unit, math.lcm(self.den, other.den) if same_den
                         else self.den)
        b = other._recast(unit, a.den if same_den else other.den)
        return a, b

    # -- the rational view ------------------------------------------------
    @property
    def terms(self):
        """(coeff, freq) pairs sorted by frequency.  Exact sums present
        ExactComplex coefficients and frequencies, converted on first
        access; the length is available without converting."""
        if self.field is FLOAT:
            return self.data
        return _RationalTerms(self)

    @cached_property
    def _rational_terms(self) -> tuple:
        D, Q = self.unit, self.den
        return tuple(
            (ExactComplex.over(c.re, c.im, Q),
             tuple(ExactComplex.over(f[m], f[m + 1], D)
                   for m in range(0, len(f), 2)))
            for c, f in self._sorted_data())

    def _sorted_data(self):
        return sorted(self.data, key=lambda t: t[1])

    def _complex_terms(self) -> list:
        """(complex coeff, complex freq tuple) pairs sorted by frequency.

        Int true division rounds correctly, so these are the floats of
        the rational values."""
        if self.field is FLOAT:
            return [(complex(c), tuple(complex(w) for w in f))
                    for c, f in self.data]
        D, Q = self.unit, self.den
        return [(complex(c.re / Q, c.im / Q),
                 tuple(complex(f[m] / D, f[m + 1] / D)
                       for m in range(0, len(f), 2)))
                for c, f in self._sorted_data()]

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
        return self._with(tuple((c * factor, f) for c, f in self.data), den=den)

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
        """
        return self._map_coeffs(
            lambda c, z, *k: c * weight(z, *k), degree, constants)

    def _map_coeffs(self, fn: Callable, degree: int, constants=()) -> "ExpPoly":
        """Replace each coefficient c by fn(c, z, *constants), z_n = i*freq_n,
        fn homogeneous of the given degree in z and the constants."""
        ks = [self.field.coerce(k) for k in constants]
        if self.field is FLOAT:
            return self._merged([(fn(c, [1j * w for w in f], *ks), f)
                                 for c, f in self.data])
        unit = math.lcm(self.unit, *(k.denominator for k in ks))
        poly = self._recast(unit, self.den)
        ks = [GaussInt.scaled(k, unit) for k in ks]
        pairs = range(0, 2 * self.num_vars, 2)
        out = [(fn(c, [GaussInt(-f[m + 1], f[m]) for m in pairs], *ks), f)
               for c, f in poly.data]
        return poly._with((), den=poly.den * unit ** degree)._merged(out)

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
        """Complex conjugate; e^{i w x} maps to e^{-i conj(w) x}."""
        if self.field is EXACT:
            return self._with(tuple(
                (c.conjugate(), tuple(x if m & 1 else -x for m, x in enumerate(f)))
                for c, f in self.data))
        return self._with(tuple((np.conj(c), tuple(-np.conj(w) for w in f))
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
        width = 2 if self.field is EXACT else 1
        ii, jj = (i - 1) * width, (j - 1) * width
        out = []
        for coeff, freq in self.data:
            merged = list(freq)
            for t in range(width):
                merged[jj + t] = merged[jj + t] + merged[ii + t]
            del merged[ii:ii + width]
            out.append((coeff, tuple(merged)))
        return self._with((), num_vars=self.num_vars - 1)._merged(out)

    def restrict_to_boundary(self, j: int) -> "ExpPoly":
        """Substitute x_{j+1} := x_j (1 <= j < N), the one-sided limit
        taken from the fundamental region."""
        if not (1 <= j < self.num_vars):
            raise ValueError("boundary index out of range")
        return self.substitute_equal(j + 1, j)

    # -- predicates and evaluation ---------------------------------------
    def is_empty(self, abs_tol: float = 0.0) -> bool:
        if self.field is EXACT:
            return not self.data
        return self.max_coeff() <= abs_tol

    def max_coeff(self) -> float:
        if self.field is EXACT:
            Q = self.den
            return max((abs(complex(c.re / Q, c.im / Q)) for c, _ in self.data),
                       default=0.0)
        return max((abs(complex(c)) for c, _ in self.data), default=0.0)

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
    def from_json_dict(doc: dict, field: Field | None = None) -> "ExpPoly":
        """The sum a JSON document describes, in the given field; by
        default EXACT when the document holds any rational number."""
        terms = []
        saw_rational = False
        for t in doc["terms"]:
            re, r1 = _num_parse(t["re"])
            im, r2 = _num_parse(t["im"])
            freq = []
            rationals = [r1, r2]
            for w in t["freq"]:
                wv, r = _freq_parse(w)
                freq.append(wv)
                rationals.append(r)
            saw_rational = saw_rational or any(rationals)
            terms.append((re, im, tuple(freq)))
        if field is None:
            field = EXACT if saw_rational else FLOAT
        built = []
        for re, im, freq in terms:
            coeff = ExactComplex(re, im) if field is EXACT \
                else complex(float(re), float(im))
            built.append((coeff, freq))
        return ExpPoly.from_terms(doc["n"], built, field)

    def __repr__(self):
        return (f"ExpPoly(n={self.num_vars}, terms={len(self.data)}, "
                f"{self.field.name})")


class _RationalTerms(SequenceABC):
    """Read-only sequence of an exact sum's terms in rational form."""

    __slots__ = ("_poly",)

    def __init__(self, poly: ExpPoly):
        self._poly = poly

    def __len__(self):
        return len(self._poly.data)

    def __getitem__(self, index):
        return self._poly._rational_terms[index]

    def __iter__(self):
        return iter(self._poly._rational_terms)

    def __eq__(self, other):
        if isinstance(other, SequenceABC):
            return self._poly._rational_terms == tuple(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return repr(self._poly._rational_terms)


def _consolidate_float(acc: dict) -> dict:
    """Merge float frequency vectors that agree to relative 1e-12.

    Two vectors are linked when every real and imaginary part differs
    by at most the tolerance; each connected cluster becomes one term,
    keyed by its least vector in sort order, with the coefficients added
    in that order.  The result does not depend on the order of the
    input.  Candidate clusters come from cutting the vectors, one
    component at a time, wherever two sorted neighbours differ by more
    than the tolerance; no linked pair is ever cut apart, so the exact
    links are then resolved within each (small) candidate group.
    """
    if len(acc) < 2:
        return acc
    entries = sorted(acc.items(), key=lambda kv: _freq_sort_key(kv[0]))
    points = [tuple(x for pair in _freq_sort_key(f) for x in pair)
              for f, _ in entries]
    scale = max((abs(x) for p in points for x in p), default=0.0)
    tol = FLOAT_MERGE_RTOL * max(scale, 1.0)

    groups = [list(range(len(entries)))]
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

    root = list(range(len(entries)))

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
    for e, (_, coeff) in enumerate(entries):
        rep = find(e)
        sums[rep] = sums[rep] + coeff if rep in sums else coeff
    return {entries[rep][0]: 0 + total for rep, total in sums.items()}


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
        return Fraction(v["num"], v["den"]), True
    return v, False


def _freq_parse(w):
    if isinstance(w, dict):
        if "num" in w:
            return Fraction(w["num"], w["den"]), True
        re, r1 = _num_parse(w["re"])
        im, r2 = _num_parse(w["im"])
        if r1 or r2:
            return ExactComplex(re, im), True
        return complex(re, im), False
    return w, False


def _freq_sort_key(freq):
    """Sort key of a float frequency vector: (re, im) per variable."""
    return tuple((w.real, w.imag) for w in map(complex, freq))


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
        width = 2 if poly.field is EXACT else 1
        out = [(c, tuple(x for v in range(n)
                         for x in f[rank[v] * width:(rank[v] + 1) * width]))
               for c, f in poly.data]
        return poly._with(())._merged(out)

    def to_json_dict(self) -> dict:
        doc = self.canonical.to_json_dict()
        doc["rapidities"] = [_num_json(v) for v in self.rapidities.values]
        doc["coupling"] = _num_json(self.coupling.c)
        return doc


def build_bethe(rapidities: RapiditySet, coupling: Coupling,
                max_particles: int = MAX_PARTICLES_DEFAULT) -> BetheWavefunction:
    """Construct the canonical-region wavefunction for the given rapidities.

    On x_1 < ... < x_N each permutation P contributes
    (-1)^P prod_{j>k} (l_{Pj} - l_{Pk} - i c) exp(i sum_n x_n l_{Pn}).
    """
    n = len(rapidities)
    if n > max_particles:
        raise SizeLimit(f"N={n} exceeds the configured maximum {max_particles}")
    lam = list(rapidities.values)
    c = coupling.c
    if Field.of(*lam, c) is FLOAT:
        minus_ic = complex(0.0, -float(c))
        terms = []
        for perm in itertools.permutations(range(n)):
            coeff = complex(_perm_sign(perm))
            for j in range(n):
                for k in range(j):
                    # sgn(x_j - x_k) = +1 on the fundamental region for j > k
                    coeff = coeff * (complex(lam[perm[j]] - lam[perm[k]]) + minus_ic)
            terms.append((coeff, tuple(lam[perm[m]] for m in range(n))))
        poly = ExpPoly.from_terms(n, terms, FLOAT)
        return BetheWavefunction(rapidities, coupling, poly)
    # lengths in units of D: rapidities k and coupling c become the
    # integers D*k and D*c, each pair factor the Gaussian integer
    # D*(l_{Pj} - l_{Pk}) - i*D*c, and the coefficient is their product
    # over D^(number of pairs)
    unit = math.lcm(*(Fraction(v).denominator for v in lam + [c]))
    ks = [_over(Fraction(v), unit) for v in lam]
    cd = _over(Fraction(c), unit)
    terms = []
    for perm in itertools.permutations(range(n)):
        re, im = _perm_sign(perm), 0
        for j in range(n):
            for k in range(j):
                a = ks[perm[j]] - ks[perm[k]]
                re, im = re * a + im * cd, im * a - re * cd
        terms.append((GaussInt(re, im),
                      tuple(x for m in range(n) for x in (ks[perm[m]], 0))))
    poly = ExpPoly(n, EXACT, (), unit, unit ** (n * (n - 1) // 2))._merged(terms)
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


def dumps(obj) -> str:
    """JSON text for ExpPoly / BetheWavefunction documents."""
    return json.dumps(obj.to_json_dict(), sort_keys=True)
