"""Truncated Laurent series in the inverse spectral parameter.

A series is a coefficient list a_0..a_K meaning sum_k a_k / lambda^k,
closed under addition, multiplication, log and exp at fixed truncation
order.  Coefficients live in the series' field: complex-rational under
``EXACT`` (rational rapidities and coupling), complex floats under
``FLOAT``; the typo adjudication of the printed expansion tables runs
exactly so that verdicts never hinge on rounding.
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
        out = [self.field.zero] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if self.field.is_zero(a):
                continue
            for j in range(self.order + 1 - i):
                out[i + j] = out[i + j] + a * other.coeffs[j]
        return LaurentSeries(self.order, tuple(out), self.field)

    def log(self) -> "LaurentSeries":
        """Series logarithm; requires unit leading coefficient, so the
        result has vanishing constant term."""
        if not self.field.equal(self.coeffs[0], self.field.one, 1e-12):
            raise ValueError("log requires leading coefficient 1")
        a = self.coeffs
        b = [self.field.zero] * (self.order + 1)
        for n in range(1, self.order + 1):
            acc = a[n]
            for k in range(1, n):
                acc = acc - b[k] * a[n - k] * k / n
            b[n] = acc
        return LaurentSeries(self.order, tuple(b), self.field)

    def exp(self) -> "LaurentSeries":
        """Series exponential of a series with vanishing constant term."""
        if not self.field.is_zero(self.coeffs[0], 1e-300):
            raise ValueError("exp requires vanishing constant term")
        b = self.coeffs
        a = [self.field.one] + [self.field.zero] * self.order
        for n in range(1, self.order + 1):
            acc = self.field.zero
            for k in range(1, n + 1):
                acc = acc + b[k] * a[n - k] * k / n
            a[n] = acc
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
