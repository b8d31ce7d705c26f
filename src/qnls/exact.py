"""Exact complex-rational arithmetic.

All identity checks in this package are equalities with zero, so the
default working mode keeps every coefficient as a complex number whose
real and imaginary parts are `fractions.Fraction` instances.  This is
the scalar callers see; plane-wave sums store their exact coefficients
as Gaussian integers over a shared denominator (see ``planewaves``) and
convert at their interface.  Floating point is reserved for quadrature,
Newton iteration and eigenvalue work, where tolerances are meaningful.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]


class ExactComplex:
    """A complex number with rational real and imaginary parts.

    Supports +, -, *, / against other ``ExactComplex`` values, ints and
    Fractions.  Hashable and exactly comparable, so it can key merge
    dictionaries for plane-wave frequency vectors.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("ExactComplex is immutable")

    # -- coercion ------------------------------------------------------
    @staticmethod
    def coerce(value) -> "ExactComplex":
        if isinstance(value, ExactComplex):
            return value
        if isinstance(value, (int, Fraction)):
            return ExactComplex(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to ExactComplex")

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        o = ExactComplex.coerce(other)
        return ExactComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = ExactComplex.coerce(other)
        return ExactComplex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return ExactComplex.coerce(other) - self

    def __mul__(self, other):
        o = ExactComplex.coerce(other)
        return ExactComplex(self.re * o.re - self.im * o.im,
                            self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = ExactComplex.coerce(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by exact zero")
        return ExactComplex((self.re * o.re + self.im * o.im) / d,
                            (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        return ExactComplex.coerce(other) / self

    def __neg__(self):
        return ExactComplex(-self.re, -self.im)

    def __pow__(self, n: int):
        if n < 0:
            return ExactComplex(1) / self ** (-n)
        out = ExactComplex(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    @property
    def denominator(self) -> int:
        """Least common denominator of the real and imaginary parts."""
        return math.lcm(self.re.denominator, self.im.denominator)

    # -- predicates ----------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction, ExactComplex)):
            o = ExactComplex.coerce(other)
            return self.re == o.re and self.im == o.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    # -- conversion ----------------------------------------------------
    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ExactComplex({self.re!r}, {self.im!r})"


I_EXACT = ExactComplex(0, 1)


def exact(re: Rat = 0, im: Rat = 0) -> ExactComplex:
    """Shorthand constructor used throughout the exact-mode code."""
    return ExactComplex(re, im)


def as_scalar(value, exact_mode: bool):
    """Coerce a number to the scalar field of the requested mode."""
    if exact_mode:
        return ExactComplex.coerce(value)
    if isinstance(value, ExactComplex):
        return complex(value)
    return complex(value)


def scalar_is_zero(value, abs_tol: float = 0.0) -> bool:
    if isinstance(value, ExactComplex):
        return value.is_zero()
    return abs(complex(value)) <= abs_tol
