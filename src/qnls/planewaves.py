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

Both fields store a sum as columns with one entry per term: ``keys``,
each the flat tuple (re_1, im_1, ..., re_N, im_N) of a frequency vector
in units of 1/``unit``, and ``coeffs``, read over ``den``.  Every
identity checked here is homogeneous in (k, c, d/dx), all of dimension
1/length, so measuring lengths in units of D, the least common
denominator of the rapidities and the coupling, makes them Gaussian
integers.  An exact sum has ``unit`` D, int keys and a ``GaussColumn``
of coefficients: two numpy object arrays of Python ints (int64 would
overflow: N = 7 coefficients pass 2**63), the real and imaginary
numerators over ``den`` Q.  An operator that is a homogeneous
polynomial of degree d (a charge, a pair bracket, a derivative)
multiplies Q by D^d; sums first bring both operands to a common D and
Q.  No gcd is taken on the way, so a cancellation is an exact
cancellation of integers.  A ``FLOAT`` sum has ``unit = den = 1``,
float keys and an object array of Python ``complex``, which rounds as
one operation per term would (complex128 arrays moved a float residual
from 0.0 to 3.3e-19).  Negation, scaling, weights and sums of equal keys
act on whole columns; only ``_merged`` (other sums, restrictions,
products) visits the terms one by one.  It combines terms whose keys
are equal, in both fields.  FLOAT keys one rounding apart stay two
terms; every key the program forms is an exact sum of its float
operands, rounded once, so keys equal as exact sums are equal floats.
``terms`` presents field scalars (``ExactComplex`` or ``complex``)
sorted by frequency; ``from_terms``, ``evaluate``, ``to_float`` and the
JSON documents convert at the edge.

A weight (``weighted``, ``differentiate``) may use only +, -, * and **
by a non-negative int, and ``z[0] * 0`` for a zero: no comparison,
``bool`` or branch on a term's value.  A pass calls it once, in either
field, on the columns z_n = i * freq_n; it moves no key, so it merges
nothing.

States checked together form one sum (``_tagged``): each key ends in its
state's index, which keeps the states apart in a merge and which no
weight or recast reads; a value given as a list, one per state,
becomes a column gathered by that tag (``_numerators``).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add, itemgetter, mul, sub
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DegenerateRapidities, SizeLimit
from .exact import EXACT, FLOAT, ExactComplex, Field

MAX_PARTICLES = 8


class GaussColumn:
    """Gaussian integers real + i*imag, one per term: the coefficient
    column of an exact sum and the z_n and constants of an exact weight.

    The parts are numpy object arrays of Python ints, or ints standing
    for every term.  +, -, * and ** by a non-negative int act entrywise
    and mix with ints; an int 0 part is skipped, never multiplied or
    added, so the real part of z_n = i * freq_n on real frequencies costs
    nothing.  Indexing selects terms (an int part stays), iteration
    yields (real, imag) pairs and ``col != 0`` masks the nonzero entries.
    """

    __slots__ = ("real", "imag")

    def __init__(self, real, imag):
        self.real = real
        self.imag = imag

    @staticmethod
    def of(z: ExactComplex, unit: int) -> "GaussColumn":
        """unit * z, for unit a multiple of z's denominator."""
        k = unit // z.d
        return GaussColumn(z.a * k, z.b * k)

    def __add__(self, other):
        if type(other) is GaussColumn:
            return GaussColumn(_part(add, self.real, other.real),
                               _part(add, self.imag, other.imag))
        return GaussColumn(_part(add, self.real, other), self.imag)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return GaussColumn(_part(sub, other, self.real), -self.imag)

    def __neg__(self):
        return GaussColumn(-self.real, -self.imag)

    def __mul__(self, other):
        if type(other) is GaussColumn:
            a, b, c, d = self.real, self.imag, other.real, other.imag
            return GaussColumn(_part(sub, _part(mul, a, c), _part(mul, b, d)),
                               _part(add, _part(mul, a, d), _part(mul, b, c)))
        return GaussColumn(_part(mul, self.real, other),
                           _part(mul, self.imag, other))

    __rmul__ = __mul__

    def __pow__(self, m: int):
        out = self if m else GaussColumn(1, 0)
        for _ in range(m - 1):
            out = out * self
        return out

    def __ne__(self, zero):
        return (self.real != zero) | (self.imag != zero)

    def __getitem__(self, index) -> "GaussColumn":
        return GaussColumn(*(p if type(p) is int else p[index]
                             for p in (self.real, self.imag)))

    def __iter__(self):
        return zip(self.real, self.imag)


def _part(op, x, y):
    """op(x, y) for ``add``, ``sub`` or ``mul`` of column parts; the int 0
    stands for zero in every term and costs no pass over a column."""
    if type(x) is int and not x:
        return 0 if op is mul else y if op is add else -y
    if type(y) is int and not y:
        return 0 if op is mul else x
    return op(x, y)


@dataclass(frozen=True, eq=False)
class ExpPoly:
    """Finite sum of complex plane waves over an ordered region.

    Term t means coeffs[t] / den * exp(i * freq . x), its frequencies
    read from the flat key keys[t] = (re_1, im_1, ..., re_N, im_N) in
    units of 1/``unit``.  Exact sums have int keys, in no particular
    order, and a ``GaussColumn`` of coefficients; FLOAT sums have float
    keys, sorted by state tag, then by key, after every merge, an
    object array of ``complex`` coefficients and ``unit = den = 1``.
    Invariants: no two terms share a key (equal floats are one key) and
    no coefficient is zero (exactly 0.0 in float mode).
    Without columns (``coeffs`` None) a sum is only a ``_merged`` template.
    Operands of ``+`` and ``-`` with equal keys after alignment add their
    columns and merge nothing.  A scaled or weighted sum that keeps every
    term keeps the key tuple and shares the cached key columns and z.
    """

    num_vars: int
    field: Field
    keys: tuple = ()
    coeffs: object = None
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
            raw = [(c.a * (den // c.d), c.b * (den // c.d),
                    tuple(x * (unit // w.d) for w in f for x in (w.a, w.b)))
                   for c, f in normalized]
        return ExpPoly(num_vars, field, unit=unit, den=den)._merged(raw)

    @staticmethod
    def zero(num_vars: int, field: Field) -> "ExpPoly":
        return ExpPoly(num_vars, field)._merged(())

    def _with(self, keys: tuple, coeffs, den: int | None = None) -> "ExpPoly":
        """These columns as a sum like this one, zero terms dropped.  An
        int part of a GaussColumn is widened to a column here, so no
        stored sum holds one.  Given this sum's own key tuple and no zero
        term, the result shares its cached key columns and z."""
        if type(coeffs) is GaussColumn:
            coeffs = GaussColumn(*(np.full(len(keys), p, dtype=object)
                                   if type(p) is int else p
                                   for p in (coeffs.real, coeffs.imag)))
        live, den = coeffs != 0, self.den if den is None else den
        if keys is self.keys and live.all():
            out = ExpPoly(self.num_vars, self.field, keys, coeffs, self.unit, den)
            out.__dict__.update((name, self.__dict__[name]) for name in
                                ("_key_columns", "_z") if name in self.__dict__)
            return out
        return ExpPoly(self.num_vars, self.field,
                       tuple(itertools.compress(keys, live)), coeffs[live],
                       self.unit, den)

    def _items(self, coeffs, keys):
        """Columns as the items ``_merged`` takes, one per term."""
        if self.field is FLOAT:
            return zip(coeffs, keys)
        return zip(*(itertools.repeat(p) if type(p) is int else p
                     for p in (coeffs.real, coeffs.imag)), keys)

    def _merged(self, raw_terms) -> "ExpPoly":
        """The sum of raw terms, one item per term: (real, imag, key) in
        an exact sum, the ints read over ``den``, and (coeff, key) in a
        FLOAT one.  Terms with equal keys are combined, in FLOAT too,
        where keys one rounding apart stay two terms; zeros are dropped.
        FLOAT keys come out sorted by state tag, then by key."""
        if self.field is FLOAT:
            acc: dict = {}
            for coeff, key in raw_terms:
                prev = acc.get(key)
                acc[key] = coeff if prev is None else prev + coeff
            width = 2 * self.num_vars       # a tag, if any, follows
            keys = sorted(acc, key=lambda key: (key[width:], key))
            return self._with(tuple(keys), np.array([acc[key] for key in keys],
                                                    dtype=object))
        # each key is hashed once and gets the next slot of the columns
        slots: dict = {}
        res, ims = [], []
        for re, im, key in raw_terms:
            slot = slots.get(key)
            if slot is None:
                slots[key] = len(res)
                res.append(re)
                ims.append(im)
            else:
                res[slot] += re
                ims[slot] += im
        return self._with(tuple(slots), GaussColumn(np.array(res, dtype=object),
                                                    np.array(ims, dtype=object)))

    def _recast(self, unit: int, den: int) -> "ExpPoly":
        """The same sum with frequencies in units of 1/unit and
        coefficients over den, both multiples of the current ones."""
        if unit == self.unit and den == self.den:
            return self
        fu, width = unit // self.unit, 2 * self.num_vars
        keys = self.keys if fu == 1 else tuple(     # a tag stays as it is
            tuple(x * fu for x in f[:width]) + f[width:] for f in self.keys)
        return ExpPoly(self.num_vars, self.field, keys,
                       self.coeffs * (den // self.den), unit, den)

    def _aligned(self, other: "ExpPoly", same_den: bool) -> tuple:
        """Both sums over a common frequency unit and, if asked, a common
        coefficient denominator (FLOAT sums already share unit and den 1)."""
        unit = math.lcm(self.unit, other.unit)
        a = self._recast(unit, math.lcm(self.den, other.den) if same_den
                         else self.den)
        b = other._recast(unit, a.den if same_den else other.den)
        return a, b

    def _numerators(self, values) -> tuple:
        """Numbers as scalars the coefficient column multiplies, and their
        common denominator: int GaussColumns over the lcm in an exact
        sum, complex values over 1 in a FLOAT one.  A list, one number
        per state of a tagged batch, becomes a column gathered by tag."""
        values = [[self.field.coerce(x) for x in v] if type(v) is list
                  else [self.field.coerce(v)] for v in values]
        tags = [key[2 * self.num_vars] for key in self.keys] \
            if max(map(len, values), default=1) > 1 else None
        if self.field is FLOAT:
            return [v[0] if len(v) == 1 else np.array(v, dtype=object)[tags]
                    for v in values], 1
        den = math.lcm(*(x.d for v in values for x in v))
        cols = [[GaussColumn.of(x, den) for x in v] for v in values]
        return [v[0] if len(v) == 1 else GaussColumn(*(
            np.array(p, dtype=object)[tags] if any(p) else 0
            for p in zip(*((x.real, x.imag) for x in v)))) for v in cols], den

    @staticmethod
    @lru_cache(maxsize=1)       # asked once per charge of a check
    def _tagged(polys: tuple) -> "ExpPoly":
        """The sums of states of one N and field as one sum over their lcm
        unit and den, each key ending in its state's index (one sum stays
        as it is).  Sums hash and compare by identity."""
        if len(polys) == 1:
            return polys[0]
        for p in polys[1:]:
            polys[0]._check_compatible(p)
        unit, den = (math.lcm(*(getattr(p, a) for p in polys))
                     for a in ("unit", "den"))
        parts = [p._recast(unit, den) for p in polys]
        if polys[0].field is FLOAT:
            coeffs = np.concatenate([p.coeffs for p in parts])
        else:
            coeffs = GaussColumn(*(np.concatenate(c) for c in zip(
                *((p.coeffs.real, p.coeffs.imag) for p in parts))))
        return ExpPoly(polys[0].num_vars, polys[0].field, tuple(
            key + (tag,) for tag, p in enumerate(parts) for key in p.keys),
            coeffs, unit, den)

    def _untagged(self, count: int) -> list:
        """The sums of the ``count`` states of a batch, untagged (an empty
        sum shows no tag)."""
        if count == 1 or not self.keys:
            return [self] * count
        rows, width = [[] for _ in range(count)], 2 * self.num_vars
        for t, key in enumerate(self.keys):
            rows[key[width]].append(t)
        return [ExpPoly(self.num_vars, self.field,
                        tuple(self.keys[t][:width] for t in r),
                        self.coeffs[r], self.unit, self.den) for r in rows]

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
        parts = iter(self.coeffs) if self.field is EXACT \
            else ((c.real, c.imag) for c in self.coeffs)
        return tuple((over(re, im, Q),
                      tuple(over(f[m], f[m + 1], D)
                            for m in range(0, len(f), 2)))
                     for f, (re, im) in sorted(zip(self.keys, parts),
                                               key=itemgetter(0)))

    def _complex_terms(self) -> tuple:
        """The terms as complex floats, correctly rounded for exact sums."""
        return self._terms_in(FLOAT)

    @cached_property
    def complex_arrays(self) -> tuple:
        """Read-only (terms x vars) complex frequency matrix and
        coefficient vector of ``_complex_terms``, built once and shared
        by ``evaluate``, ``max_coeff``, ``max_freq`` and the defect rule
        of ``charges``."""
        terms = self._complex_terms()
        freqs = np.array([f for _, f in terms], dtype=complex)
        coeffs = np.array([c for c, _ in terms], dtype=complex)
        freqs.flags.writeable = False
        coeffs.flags.writeable = False
        return freqs, coeffs

    @cached_property
    def _key_columns(self) -> np.ndarray:
        """The keys as a read-only (terms x 2N) object array, (terms x
        2N + 1) for a tagged batch."""
        keys = np.array(self.keys, dtype=object).reshape(len(self.keys), len(
            self.keys[0]) if self.keys else 2 * self.num_vars)
        keys.flags.writeable = False
        return keys

    @cached_property
    def _z(self) -> list:
        """The columns z_n = i * freq_n: GaussColumns in units of 1/unit
        for exact sums, object arrays of ``complex`` for FLOAT ones."""
        keys, pairs = self._key_columns, range(0, 2 * self.num_vars, 2)
        if self.field is EXACT:
            # real frequencies (every Bethe state) give real part int 0
            return [GaussColumn(-keys[:, m + 1] if keys[:, m + 1].any() else 0,
                                keys[:, m]) for m in pairs]
        return [np.array([1j * complex(f[m], f[m + 1]) for f in self.keys],
                         dtype=object) for m in pairs]

    # -- basic algebra --------------------------------------------------
    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        self._check_compatible(other)
        a, b = self._aligned(other, same_den=True)
        if a.keys == b.keys:    # keys are distinct: nothing to merge
            return a._with(a.keys, a.coeffs + b.coeffs)
        return a._merged(itertools.chain(a._items(a.coeffs, a.keys),
                                         b._items(b.coeffs, b.keys)))

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self + (-other)

    def __neg__(self) -> "ExpPoly":
        return ExpPoly(self.num_vars, self.field, self.keys, -self.coeffs,
                       self.unit, self.den)

    def scale(self, factor) -> "ExpPoly":
        (factor,), den = self._numerators([factor])
        # a zero factor, or a FLOAT product that underflows, drops terms
        return self._with(self.keys, self.coeffs * factor, den=self.den * den)

    def weighted(self, weight: Callable, degree: int, *constants) -> "ExpPoly":
        """Multiply each term's coefficient by weight(z, *constants),
        where z_n = i * freq_n.

        This realizes constant-coefficient differential operators: a
        polynomial p in the per-variable derivatives acts on a plane
        wave with frequency vector w as multiplication by p(i*w).  The
        weight must be a homogeneous polynomial of total degree
        ``degree`` in z and the constants (numbers of dimension
        1/length, like the coupling), evaluated once on columns of all
        terms (see the module docstring).
        """
        return self._map_coeffs(
            lambda c, z, *k: c * weight(z, *k), degree, constants)

    def _map_coeffs(self, fn: Callable, degree: int, constants=()) -> "ExpPoly":
        """Replace the coefficient column c by fn(c, z, *constants),
        z_n = i*freq_n, fn homogeneous of the given degree in z and the
        constants."""
        ks, den = self._numerators(constants)
        unit = math.lcm(self.unit, den)
        poly = self._recast(unit, self.den)
        if unit != den:     # FLOAT constants are already over unit 1
            ks = [k * (unit // den) for k in ks]
        # a weight moves no key: drop zeros, keep the order, merge nothing
        return poly._with(poly.keys, fn(poly.coeffs, poly._z, *ks),
                          den=poly.den * unit ** degree)

    def mul(self, other: "ExpPoly") -> "ExpPoly":
        """Pointwise product; frequency vectors add termwise."""
        self._check_compatible(other)
        a, b = self._aligned(other, same_den=False)
        rows = np.repeat(np.arange(len(a.keys)), len(b.keys))
        cols = np.tile(np.arange(len(b.keys)), len(a.keys))
        keys = [tuple(x + y for x, y in zip(f1, f2))
                for f1 in a.keys for f2 in b.keys]
        return ExpPoly(a.num_vars, a.field, unit=a.unit, den=a.den * b.den) \
            ._merged(a._items(a.coeffs[rows] * b.coeffs[cols], keys))

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
        cols = list(self._key_columns.T)
        cols[jj] = cols[jj] + cols[ii]
        cols[jj + 1] = cols[jj + 1] + cols[ii + 1]
        del cols[ii:ii + 2]
        return ExpPoly(self.num_vars - 1, self.field, unit=self.unit,
                       den=self.den)._merged(self._items(self.coeffs, zip(*cols)))

    def restrict_to_boundary(self, j: int) -> "ExpPoly":
        """Substitute x_{j+1} := x_j (1 <= j < N), the one-sided limit
        taken from the fundamental region."""
        if not (1 <= j < self.num_vars):
            raise ValueError("boundary index out of range")
        return self.substitute_equal(j + 1, j)

    # -- predicates and evaluation ---------------------------------------
    def is_empty(self) -> bool:
        return not self.keys

    def max_coeff(self) -> float:
        # a FLOAT sum holds its complex coefficients already, in key order
        coeffs = self.coeffs if self.field is FLOAT \
            else self.complex_arrays[1].tolist()
        return float(max(map(abs, coeffs), default=0.0))

    def max_freq(self) -> float:
        """Largest modulus of a single frequency; 0.0 for the empty sum."""
        freqs, _ = self.complex_arrays
        return float(np.abs(freqs).max()) if freqs.size else 0.0

    def term_count(self) -> int:
        return len(self.keys)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the sum at one point or a batch of points (rows): the
        phases i x . omega of every point and term, their exponentials,
        and the coefficient-weighted sum over terms."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.num_vars:
            raise ValueError("point dimension mismatch")
        if not self.keys:
            vals = np.zeros(pts.shape[0], dtype=complex)
        else:
            freqs, coeffs = self.complex_arrays
            # The phases are summed by einsum, not by a complex matrix
            # product: on an AVX-512 OpenBLAS kernel (SkylakeX) the complex
            # np.exp after a zgemm, even a 4 x 4 one, ran about 11 times
            # slower (9 ms against 0.6 ms for 23,040 values, a 2-core
            # x86-64 machine), and not after a dgemm, a zgemv or an einsum.
            vals = np.exp(np.einsum("pk,tk->pt", 1j * pts, freqs)) @ coeffs
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
        return ExpPoly.from_terms(
            doc["n"], [(_freq_parse(t), tuple(map(_freq_parse, t["freq"])))
                       for t in doc["terms"]], field)

    def __repr__(self):
        return (f"ExpPoly(n={self.num_vars}, terms={len(self.keys)}, "
                f"{self.field.name})")


class _Terms(SequenceABC):
    """Read-only sequence of a sum's terms as scalars of its field."""

    __slots__ = ("_poly",)

    def __init__(self, poly: ExpPoly):
        self._poly = poly

    def __len__(self):
        return len(self._poly.keys)

    def __getitem__(self, index):
        return self._poly._field_terms[index]

    def __eq__(self, other):
        if isinstance(other, SequenceABC):
            return self._poly._field_terms == tuple(other)
        return NotImplemented

    def __repr__(self):
        return repr(self._poly._field_terms)


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
        # NaN fails both comparisons
        if not 0 < self.c < math.inf:
            raise ValueError("coupling must be finite and positive "
                             "(repulsive regime only)")


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
        if not all(abs(v) < math.inf for v in vals):
            raise ValueError(f"rapidities must be finite, got {vals}")
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
        # variable v of the extension carries the canonical frequency of
        # its rank in the ordering
        poly, rank = self.canonical, np.argsort(perm)
        keys = poly._key_columns[:, np.stack([2 * rank, 2 * rank + 1], 1).ravel()]
        return poly._merged(poly._items(poly.coeffs, map(tuple, keys.tolist())))


def build_bethe(rapidities: RapiditySet | list, coupling: Coupling | list
                ) -> BetheWavefunction | list:
    """Construct the canonical-region wavefunction for the given rapidities.

    On x_1 < ... < x_N each permutation P contributes
    (-1)^P prod_{j>k} (l_{Pj} - l_{Pk} - i c) exp(i sum_n x_n l_{Pn}).
    Lists of rapidity sets of one N and of couplings build their states
    in one pass over one tagged sum, and give a list of states.
    """
    many = type(rapidities) is list
    raps, cps = (rapidities, coupling) if many else ([rapidities], [coupling])
    kinds = {(len(r), Field.of(*r.values, cp.c)) for r, cp in zip(raps, cps)}
    if len(kinds) != 1 or len(raps) != len(cps):
        raise ValueError("a batch needs one coupling per state, and states "
                         "of one N and one field")
    (n, field), = kinds
    if n > MAX_PARTICLES:
        raise SizeLimit(f"N={n} exceeds the maximum {MAX_PARTICLES}")
    lam = [list(r.values) for r in raps]
    cs = [cp.c for cp in cps]
    if field is EXACT:
        # lengths in units of D: rapidities k and coupling c become the
        # integers D*k and D*c, each pair factor the Gaussian integer
        # D*(l_{Pj} - l_{Pk}) - i*D*c, and the coefficient is their
        # product over D^(number of pairs)
        unit = math.lcm(*(v.denominator for v in itertools.chain(*lam, cs)))
        ks = [[v.numerator * (unit // v.denominator) for v in vs] for vs in lam]
        cd = [c.numerator * (unit // c.denominator) for c in cs]
        zero, pack = 0, zip
    else:
        unit, ks, cd, zero = 1, [[float(v) for v in vs] for vs in lam], \
            [float(c) for c in cs], 0.0

        def pack(re, im, keys):
            return zip(map(complex, re, im), keys)
    # one column entry per state and permutation P, in the lexicographic
    # order of itertools: a first entry that is the d-th smallest adds d
    # inversions to those of the rest, so (-1)^P builds up digit by digit
    perms = list(itertools.permutations(range(n)))
    signs = [1]
    for m in range(2, n + 1):
        signs = [-x if d % 2 else x for d in range(m) for x in signs]
    re = np.array(signs * len(raps), dtype=object)
    im = re * 0
    tagged = len(raps) > 1      # a batch of one carries no tag
    cd = np.repeat(np.array(cd, dtype=object), len(perms)) if tagged else cd[0]
    lam_p = [np.array([k[perm[m]] for k in ks for perm in perms],
                      dtype=object) for m in range(n)]
    for j in range(n):
        for k in range(j):
            # sgn(x_j - x_k) = +1 on the fundamental region for j > k
            a = lam_p[j] - lam_p[k]
            re, im = re * a + im * cd, im * a - re * cd
    # keys (l_{P1}, 0, ..., l_{PN}, 0), then the state's tag; N = 0 has
    # the one key ()
    tags = [np.repeat(np.arange(len(raps)), len(perms)).tolist()] \
        if tagged else []
    keys = list(zip(*[part for col in lam_p
                      for part in (col, [zero] * len(re))], *tags)) or [()]
    poly = ExpPoly(n, field, unit=unit, den=unit ** (n * (n - 1) // 2))._merged(
        list(pack(re, im, keys)))
    states = [BetheWavefunction(*state) for state in zip(
        raps, cps, poly._untagged(len(raps)))]
    return states if many else states[0]


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

