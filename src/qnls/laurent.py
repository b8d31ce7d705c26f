"""Truncated Laurent series in the inverse spectral parameter.

A series is a coefficient list a_0..a_K meaning sum_k a_k / lambda^k,
closed under addition, multiplication, log and exp at fixed truncation
order.  Coefficients live in the series' field: complex-rational under
``EXACT`` (rational rapidities and coupling), complex floats under
``FLOAT``; the typo adjudication of the printed expansion tables runs
exactly so that verdicts never hinge on rounding.

Products, logs and exps run in ``EXACT`` on Gaussian-integer
numerators: the known side over its lcm once, the side a recurrence
builds over a running lcm, each coefficient one dot product of ints
reduced once.  ``FLOAT`` adds the terms of each coefficient one by one,
in the order of the recurrence (``_fold``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul
from typing import Sequence

from .exact import EXACT, ExactComplex, Field, over_lcm


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
        if field is EXACT:
            return _exact_mul(x, y)
        live = [i for i, a in enumerate(x) if not field.is_zero(a)]
        return LaurentSeries(self.order, tuple(
            _fold(field.zero, 1, [(1, x[i], y[n - i])
                                  for i in live if i <= n], 0)
            for n in range(self.order + 1)), field)

    def log(self) -> "LaurentSeries":
        """Series logarithm; requires unit leading coefficient, so the
        result has vanishing constant term."""
        if not self.field.equal(self.coeffs[0], self.field.one, 1e-12):
            raise ValueError("log requires leading coefficient 1")
        if self.field is EXACT:
            return _exact_log_exp(self.coeffs, log=True)
        a, b = self.coeffs, [self.field.zero]
        for n in range(1, self.order + 1):
            b.append(_fold(a[n], -1, [(k, b[k], a[n - k])
                                      for k in range(1, n)], n))
        return LaurentSeries(self.order, tuple(b), self.field)

    def exp(self) -> "LaurentSeries":
        """Series exponential of a series with vanishing constant term."""
        if not self.field.is_zero(self.coeffs[0], 1e-300):
            raise ValueError("exp requires vanishing constant term")
        if self.field is EXACT:
            return _exact_log_exp(self.coeffs, log=False)
        b, a = self.coeffs, [self.field.one]
        for n in range(1, self.order + 1):
            a.append(_fold(self.field.zero, 1, [
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


def _fold(start, sign: int, terms: list, n: int) -> complex:
    """start + sign * sum k x y / n (x y for n = 0), term by term, in order."""
    for k, x, y in terms:
        term = x * y if n == 0 else x * y * k / n
        start = start + term if sign > 0 else start - term
    return start


def _dot(xr: list, xi: list, yr: list, yi: list) -> tuple:
    """sum_j (xr_j + i xi_j)(yr_j + i yi_j) to the shorter end, as ints."""
    return (sum(map(mul, xr, yr)) - sum(map(mul, xi, yi)),
            sum(map(mul, xr, yi)) + sum(map(mul, xi, yr)))


def _exact_mul(x: tuple, y: tuple) -> LaurentSeries:
    """Coefficient n of the product: x_0..x_n dotted with y_n..y_0, each
    side over its lcm."""
    (xr, xi, dx), (yr, yi, dy) = over_lcm(x), over_lcm(y[::-1])
    top = len(x) - 1
    return LaurentSeries(top, tuple(
        ExactComplex.over(*_dot(xr, xi, yr[top - n:], yi[top - n:]), dx * dy)
        for n in range(top + 1)), EXACT)


def _exact_log_exp(coeffs: tuple, log: bool) -> LaurentSeries:
    """log v of a series a with a_0 = 1, n v_n = n a_n - sum_{0<k<n} u_k
    a_{n-k} with u_k = k v_k, or exp v of a series b with b_0 = 0,
    n v_n = sum_{k<n} v_k u_{n-k} with u_k = k b_k.  The side built as
    it runs, u or v, is kept over a running lcm q of the denominators of
    v, scaled up only when q grows."""
    kr, ki, den = over_lcm(
        (coeffs if log else [k * v for k, v in enumerate(coeffs)])[::-1])
    top = len(kr) - 1
    sr, si, q = [0 if log else 1], [0], 1
    out = [ExactComplex(0 if log else 1)]
    for n in range(1, top + 1):
        re, im = _dot(sr, si, kr[top - n:], ki[top - n:])
        if log:
            re, im = n * kr[top - n] * q - re, n * ki[top - n] * q - im
        v = ExactComplex.over(re, im, n * den * q)
        out.append(v)
        if q % v.d:
            grow = v.d // gcd(q, v.d)
            q *= grow
            sr, si = [x * grow for x in sr], [x * grow for x in si]
        f = q // v.d * (n if log else 1)
        sr.append(v.a * f)
        si.append(v.b * f)
    return LaurentSeries(top, tuple(out), EXACT)
