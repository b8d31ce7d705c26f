"""Truncated Laurent series in the inverse spectral parameter.

A series is a coefficient list a_0..a_K meaning sum_k a_k / lambda^k,
closed under addition, multiplication, log and exp at fixed truncation
order.  Coefficients live in the series' field: complex-rational under
``EXACT`` (rational rapidities and coupling), complex floats under
``FLOAT``; the typo adjudication of the printed expansion tables runs
exactly so that verdicts never hinge on rounding.

Each coefficient of a product, log or exp is one call of the field's
``fold``: term by term on ``complex`` values, or in ``EXACT`` one sum
of bare ints over a common denominator, reduced once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .exact import Field


@dataclass(frozen=True)
class LaurentSeries:
    order: int
    coeffs: tuple
    field: Field

    @staticmethod
    def from_coeffs(coeffs: Sequence, field: Field) -> "LaurentSeries":
        vals = tuple(field.coerce(c) for c in coeffs)
        return LaurentSeries(len(vals) - 1, vals, field)

    @staticmethod
    def one(order: int, field: Field) -> "LaurentSeries":
        return LaurentSeries(order, (field.one,) + (field.zero,) * order, field)

    def _check(self, other: "LaurentSeries"):
        if self.order != other.order or self.field is not other.field:
            raise ValueError("incompatible series")

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check(other)
        return LaurentSeries(self.order,
                             tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
                             self.field)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check(other)
        return LaurentSeries(self.order,
                             tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
                             self.field)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.order, tuple(-a for a in self.coeffs), self.field)

    def scale(self, factor) -> "LaurentSeries":
        factor = self.field.coerce(factor)
        return LaurentSeries(self.order,
                             tuple(a * factor for a in self.coeffs), self.field)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check(other)
        x, y, field = self.coeffs, other.coeffs, self.field
        live = [i for i, a in enumerate(x) if not field.is_zero(a)]
        return LaurentSeries(self.order, tuple(
            field.fold(field.zero, 1, [(1, x[i], y[n - i])
                                       for i in live if i <= n], 0)
            for n in range(self.order + 1)), field)

    def log(self) -> "LaurentSeries":
        """Series logarithm; requires unit leading coefficient, so the
        result has vanishing constant term."""
        if not self.field.equal(self.coeffs[0], self.field.one, 1e-12):
            raise ValueError("log requires leading coefficient 1")
        a, b = self.coeffs, [self.field.zero]
        for n in range(1, self.order + 1):
            b.append(self.field.fold(a[n], -1, [(k, b[k], a[n - k])
                                                for k in range(1, n)], n))
        return LaurentSeries(self.order, tuple(b), self.field)

    def exp(self) -> "LaurentSeries":
        """Series exponential of a series with vanishing constant term."""
        if not self.field.is_zero(self.coeffs[0], 1e-300):
            raise ValueError("exp requires vanishing constant term")
        b, a = self.coeffs, [self.field.one]
        for n in range(1, self.order + 1):
            a.append(self.field.fold(self.field.zero, 1, [
                (k, b[k], a[n - k]) for k in range(1, n + 1)], n))
        return LaurentSeries(self.order, tuple(a), self.field)

    def eval_at(self, lam: complex) -> complex:
        """The sum of a_k lambda^{-k} over k <= order as a complex float."""
        total = 0.0 + 0.0j
        inv = 1.0 / complex(lam)
        power = 1.0 + 0.0j
        for a in self.coeffs:
            total += complex(a) * power
            power *= inv
        return total

    def coefficient(self, k: int):
        return self.coeffs[k]

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.order == other.order and self.field is other.field
                and all(a == b for a, b in zip(self.coeffs, other.coeffs)))

    def differing_coefficients(self, other: "LaurentSeries") -> int:
        """How many coefficients differ from those of other, exactly."""
        self._check(other)
        return sum(a != b for a, b in zip(self.coeffs, other.coeffs))

