"""Exact complex-rational arithmetic.

All identity checks in this package are equalities with zero, so the
default field, ``EXACT``, keeps every coefficient as a complex number
whose real and imaginary parts are `fractions.Fraction` instances.  This
is the scalar callers see; plane-wave sums store their exact
coefficients as Gaussian integers over a shared denominator (see
``planewaves``) and convert at their interface.  ``FLOAT`` mirrors every
computation on complex floats; floating point is otherwise reserved for
box integrals, quadrature, Newton iteration and eigenvalue work, where
tolerances are meaningful.
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
        if type(other) is int:
            return ExactComplex(self.re * other, self.im * other)
        o = ExactComplex.coerce(other)
        return ExactComplex(self.re * o.re - self.im * o.im,
                            self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is int:
            return ExactComplex(self.re / other, self.im / other)
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

    @property
    def real(self) -> Fraction:
        return self.re

    @property
    def imag(self) -> Fraction:
        return self.im

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


def exact(re: Rat = 0, im: Rat = 0) -> ExactComplex:
    """Shorthand constructor used throughout the exact-mode code."""
    return ExactComplex(re, im)


class Field:
    """The scalar field a computation runs in: ``EXACT`` (``ExactComplex``
    scalars, ``Fraction`` reals) or ``FLOAT`` (``complex`` scalars,
    ``float`` reals).  Plane-wave sums and series carry their field.

    Each field offers the constants ``zero``, ``one`` and ``i``;
    ``coerce`` (a number as a scalar of the field), ``real`` (a number as
    a real of the field) and ``frac``; and the tests ``is_zero`` and
    ``equal``, exact in ``EXACT`` and within the given tolerance in
    ``FLOAT``.
    """

    name: str

    @staticmethod
    def of(*values) -> "Field":
        """``EXACT`` when every value is an int, Fraction or ExactComplex
        (also for no values), ``FLOAT`` otherwise."""
        if all(isinstance(v, (int, Fraction, ExactComplex)) for v in values):
            return EXACT
        return FLOAT

    def frac(self, num: int, den: int):
        """The scalar num/den."""
        return self.coerce(self.real(num) / den)

    def __repr__(self):
        return self.name.upper()


class _ExactField(Field):
    name = "exact"
    zero, one, i = ExactComplex(0), ExactComplex(1), ExactComplex(0, 1)
    coerce = staticmethod(ExactComplex.coerce)
    real = staticmethod(Fraction)

    def is_zero(self, value, abs_tol: float = 0.0) -> bool:
        return value == 0

    def equal(self, a, b, rel_tol: float = 1e-10) -> bool:
        return a == b


class _FloatField(Field):
    name = "float"
    zero, one, i = 0j, 1 + 0j, 1j
    coerce = staticmethod(complex)
    real = staticmethod(float)

    def is_zero(self, value, abs_tol: float = 0.0) -> bool:
        return abs(value) <= abs_tol

    def equal(self, a, b, rel_tol: float = 1e-10) -> bool:
        """|a - b| within rel_tol of the larger magnitude, or of 1."""
        a, b = complex(a), complex(b)
        return abs(a - b) <= rel_tol * max(abs(a), abs(b), 1.0)


EXACT = _ExactField()
FLOAT = _FloatField()
