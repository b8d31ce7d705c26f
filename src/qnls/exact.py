"""Exact complex-rational arithmetic.

All identity checks in this package are equalities with zero, so the
default field, ``EXACT``, keeps every coefficient as an exact complex
rational: a Gaussian-integer numerator over one positive integer
denominator, three Python ints in lowest terms.  This is the scalar
callers see; it presents its real and imaginary parts as
`fractions.Fraction` instances.  Plane-wave sums store their exact
coefficients as Gaussian integers over a denominator shared by the whole
sum (see ``planewaves``) and convert at their interface.  ``FLOAT``
mirrors every computation on complex floats; floating point is otherwise
reserved for box integrals, quadrature, Newton iteration and eigenvalue
work, where tolerances are meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

Rat = Union[int, Fraction]


class ExactComplex:
    """A complex number with rational real and imaginary parts, stored
    as (a + ib)/d with ints a, b, d, d > 0 and gcd(a, b, d) = 1.

    Lowest terms make the representation unique, so ``==`` compares the
    three ints.  Arithmetic reduces its results with ``math.gcd`` and
    creates no `Fraction`; ``re``/``im`` (alias ``real``/``imag``) build
    them on access.  Supports +, -, *, / against other
    ``ExactComplex`` values, ints and Fractions.  Hashable, with the
    hash of the pair of parts, so it can key merge dictionaries.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            if not isinstance(re, (int, Fraction)):
                re = Fraction(re)
            if not isinstance(im, (int, Fraction)):
                im = Fraction(im)
            p, q = re.numerator, re.denominator
            r, s = im.numerator, im.denominator
            # p/q and r/s are in lowest terms, so over lcm(q, s) is too
            d = q // gcd(q, s) * s
            a, b = p * (d // q), r * (d // s)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("ExactComplex is immutable")

    @staticmethod
    def over(a: int, b: int, d: int) -> "ExactComplex":
        """(a + ib)/d for ints a, b and d > 0."""
        if d <= 0:
            raise ValueError(f"denominator {d} is not positive")
        return _reduced(a, b, d)

    # -- coercion ------------------------------------------------------
    @staticmethod
    def coerce(value) -> "ExactComplex":
        if isinstance(value, ExactComplex):
            return value
        if isinstance(value, (int, Fraction)):
            return ExactComplex(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to ExactComplex")

    # -- arithmetic ----------------------------------------------------
    # The five methods the benchmark tracer counts (__add__, __radd__,
    # __sub__, __mul__, __rmul__) call no other counted method, so a
    # traced run counts one call per operation.
    def __add__(self, other):
        if type(other) is int:
            return _lowest(self.a + other * self.d, self.b, self.d)
        o = ExactComplex.coerce(other)
        return _sum(self, o.a, o.b, o.d)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is int:
            return _lowest(self.a - other * self.d, self.b, self.d)
        o = ExactComplex.coerce(other)
        return _sum(self, -o.a, -o.b, o.d)

    def __rsub__(self, other):
        return ExactComplex.coerce(other) - self

    def __mul__(self, other):
        if type(other) is int:
            g = gcd(other, self.d)
            k = other // g
            return _lowest(self.a * k, self.b * k, self.d // g)
        o = ExactComplex.coerce(other)
        a, b, c, e = self.a, self.b, o.a, o.b
        return _reduced(a * c - b * e, a * e + b * c, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is int:
            if other == 0:
                raise ZeroDivisionError("division by exact zero")
            a, b = self.a, self.b
            if other < 0:
                a, b, other = -a, -b, -other
            g = gcd(other, a, b)
            return _lowest(a // g, b // g, self.d * (other // g))
        o = ExactComplex.coerce(other)
        a, b, c, e = self.a, self.b, o.a, o.b
        norm = c * c + e * e
        if norm == 0:
            raise ZeroDivisionError("division by exact zero")
        # (a + ib)/d / ((c + ie)/f) = (a + ib)(c - ie) f / (d (c^2 + e^2))
        f = o.d
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f,
                        self.d * norm)

    def __rtruediv__(self, other):
        return ExactComplex.coerce(other) / self

    def __neg__(self):
        return _lowest(-self.a, -self.b, self.d)

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
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    real, imag = re, im

    def conjugate(self) -> "ExactComplex":
        return _lowest(self.a, -self.b, self.d)

    @property
    def denominator(self) -> int:
        """Least common denominator of the real and imaginary parts."""
        return self.d

    # -- predicates ----------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, ExactComplex):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, int):
            return self.b == 0 and self.d == 1 and self.a == other
        if isinstance(other, Fraction):
            return (self.b == 0 and self.d == other.denominator
                    and self.a == other.numerator)
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    # -- conversion ----------------------------------------------------
    def __complex__(self) -> complex:
        # int true division rounds correctly, as float(Fraction) does
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self):
        return f"ExactComplex({self.re!r}, {self.im!r})"


_new = object.__new__
_set_a = ExactComplex.a.__set__
_set_b = ExactComplex.b.__set__
_set_d = ExactComplex.d.__set__


def _lowest(a: int, b: int, d: int) -> ExactComplex:
    """(a + ib)/d, already in lowest terms with d > 0."""
    z = _new(ExactComplex)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _reduced(a: int, b: int, d: int) -> ExactComplex:
    """(a + ib)/d for d > 0, brought to lowest terms."""
    g = gcd(d, a, b)
    return _lowest(a // g, b // g, d // g)


def _sum(x: ExactComplex, a: int, b: int, d: int) -> ExactComplex:
    """x + (a + ib)/d, that value in lowest terms.  Over
    lcm(x.d, d) = x.d * d / g, g = gcd(x.d, d), a common factor of the
    new numerator and denominator can only divide g."""
    dx = x.d
    g = gcd(dx, d)
    sx, sy = dx // g, d // g
    a = x.a * sy + a * sx
    b = x.b * sy + b * sx
    h = gcd(g, a, b)
    return _lowest(a // h, b // h, sx * (d // h))


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
