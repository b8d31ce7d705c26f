"""The scalar field: EXACT axioms, inference, EXACT against FLOAT, and
the three-int ``ExactComplex`` against the two-`Fraction` scalar it
replaced."""

import math
import operator
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qnls import transfer as tr
from qnls.exact import EXACT, FLOAT, ExactComplex, Field, Rat

ROOT = Path(__file__).resolve().parent.parent

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
exact_scalars = st.builds(ExactComplex, rationals, rationals)


@given(exact_scalars, st.integers(-50, 50),
       st.integers(1, 50) | st.integers(-50, -1))
@settings(max_examples=60, deadline=None)
def test_exact_field_axioms(z, num, den):
    assert EXACT.i * EXACT.i == -EXACT.one
    assert EXACT.frac(num, den) * den == num
    assert z + EXACT.zero == z and EXACT.zero + z == z
    assert z * EXACT.one == z and EXACT.one * z == z
    assert z - z == EXACT.zero and EXACT.is_zero(z - z)
    assert EXACT.coerce(z) is z
    assert EXACT.equal(z, z) and not EXACT.equal(z, z + EXACT.i)
    # the int shortcut of * and / agrees with the general product
    assert z * num == z * ExactComplex(num) and num * z == z * num
    assert (z * den) / den == z


@pytest.mark.parametrize("values, field", [
    ((3,), EXACT),
    ((F(2, 3),), EXACT),
    ((ExactComplex(1, -2),), EXACT),
    ((-4, F(1, 2), ExactComplex(0, 1)), EXACT),
    ((), EXACT),
    ((0.5,), FLOAT),
    ((1j,), FLOAT),
    ((1, 0.5), FLOAT),
    ((F(1, 2), 2.0), FLOAT),
    ((ExactComplex(1), 1.0 + 0j), FLOAT),
])
def test_field_of(values, field):
    assert Field.of(*values) is field


state_rapidities = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    min_size=1, max_size=4, unique=True)
state_couplings = st.fractions(min_value=F(1, 3), max_value=3,
                               max_denominator=3)


def close(a, b, rel=1e-10):
    a, b = complex(a), complex(b)
    return abs(a - b) <= rel * max(abs(a), 1.0)


@given(state_rapidities, state_couplings)
@settings(max_examples=40, deadline=None)
def test_adjudication_agrees_across_fields(raps, c):
    """The same rational state adjudicated under EXACT and FLOAT gives
    the same verdicts and, within rounding, the same coefficients."""
    raps = sorted(raps)
    exact = tr.charge_coefficients_from_formulas(raps, c)
    flt = tr.charge_coefficients_from_formulas([float(k) for k in raps],
                                               float(c))
    assert exact.verdict_table() == flt.verdict_table()
    assert [v.verdict for v in exact.h1_alternative] \
        == [v.verdict for v in flt.h1_alternative]
    for a, b in zip(exact.oracle + exact.oracle_log, flt.oracle + flt.oracle_log):
        assert close(a, b)
    for va, vb in zip(exact.verdicts + exact.h1_alternative,
                      flt.verdicts + flt.h1_alternative):
        assert (va.source, va.order) == (vb.source, vb.order)
        assert close(va.printed, vb.printed) and close(va.oracle, vb.oracle)


def test_no_mode_flag_in_sources():
    """The field is carried as a value; no module threads a mode flag or
    rebuilds the imaginary unit per mode."""
    files = sorted((ROOT / "src" / "qnls").glob("*.py"))
    assert files
    offenders = [f"{path.name}: {needle}" for path in files
                 for needle in ("exact_mode", "exact(0, 1) if")
                 if needle in path.read_text(encoding="utf-8")]
    assert offenders == []


class ReferenceExactComplex:
    """The two-`Fraction` scalar that ``ExactComplex`` replaced, kept as
    the oracle of the differential tests below; its repr is the one
    ``ExactComplex`` must keep."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        object.__setattr__(self, "re", F(re))
        object.__setattr__(self, "im", F(im))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("ReferenceExactComplex is immutable")

    @staticmethod
    def coerce(value) -> "ReferenceExactComplex":
        if isinstance(value, ReferenceExactComplex):
            return value
        if isinstance(value, (int, F)):
            return ReferenceExactComplex(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to ExactComplex")

    def __add__(self, other):
        o = ReferenceExactComplex.coerce(other)
        return ReferenceExactComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = ReferenceExactComplex.coerce(other)
        return ReferenceExactComplex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return ReferenceExactComplex.coerce(other) - self

    def __mul__(self, other):
        if type(other) is int:
            return ReferenceExactComplex(self.re * other, self.im * other)
        o = ReferenceExactComplex.coerce(other)
        return ReferenceExactComplex(self.re * o.re - self.im * o.im,
                                     self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is int:
            return ReferenceExactComplex(self.re / other, self.im / other)
        o = ReferenceExactComplex.coerce(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by exact zero")
        return ReferenceExactComplex((self.re * o.re + self.im * o.im) / d,
                                     (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        return ReferenceExactComplex.coerce(other) / self

    def __neg__(self):
        return ReferenceExactComplex(-self.re, -self.im)

    def __pow__(self, n: int):
        if n < 0:
            return ReferenceExactComplex(1) / self ** (-n)
        out = ReferenceExactComplex(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    @property
    def real(self) -> F:
        return self.re

    @property
    def imag(self) -> F:
        return self.im

    def conjugate(self) -> "ReferenceExactComplex":
        return ReferenceExactComplex(self.re, -self.im)

    @property
    def denominator(self) -> int:
        return math.lcm(self.re.denominator, self.im.denominator)

    def __eq__(self, other):
        if isinstance(other, (int, F, ReferenceExactComplex)):
            o = ReferenceExactComplex.coerce(other)
            return self.re == o.re and self.im == o.im
        return NotImplemented

    def __hash__(self):
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ExactComplex({self.re!r}, {self.im!r})"


# parts with zero, negative and (in the second branch) many-digit values
diff_parts = (st.integers(-30, 30) | rationals
              | st.fractions(min_value=-10**12, max_value=10**12,
                             max_denominator=10**9))
gauss_rationals = st.tuples(diff_parts, diff_parts)
# the other operand: a Gaussian rational (built as both scalars), or a
# plain int or Fraction
operands = gauss_rationals.map(lambda p: ("gauss", p)) \
    | st.integers(-30, 30).map(lambda v: ("plain", v)) \
    | diff_parts.map(lambda v: ("plain", v))


def both(operand):
    """The operand as (new, reference) values."""
    kind, value = operand
    if kind == "gauss":
        return ExactComplex(*value), ReferenceExactComplex(*value)
    return value, value


def assert_invariants(z):
    assert type(z) is ExactComplex
    assert all(type(v) is int for v in (z.a, z.b, z.d))
    assert z.d > 0 and math.gcd(z.a, z.b, z.d) == 1


def assert_same(new, ref):
    """Every observable of the new scalar equals the reference's."""
    assert_invariants(new)
    assert type(new.re) is F and type(new.real) is F
    assert (new.re, new.im) == (ref.re, ref.im)
    assert (new.real, new.imag) == (ref.real, ref.imag)
    assert new.denominator == ref.denominator
    assert hash(new) == hash(ref)
    assert repr(new) == repr(ref)
    assert [x.hex() for x in (complex(new).real, complex(new).imag)] \
        == [x.hex() for x in (complex(ref).real, complex(ref).imag)]


def outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


BINARY = [operator.add, operator.sub, operator.mul, operator.truediv]


@pytest.mark.parametrize("op", BINARY, ids=lambda op: op.__name__)
@given(gauss_rationals, operands)
@settings(max_examples=150, deadline=None)
def test_binary_ops_match_reference(op, x, operand):
    new_x, ref_x = ExactComplex(*x), ReferenceExactComplex(*x)
    assert_same(new_x, ref_x)
    new_y, ref_y = both(operand)
    cases = [(outcome(op, new_x, new_y), outcome(op, ref_x, ref_y)),
             (outcome(op, new_y, new_x), outcome(op, ref_y, ref_x))]
    for new, ref in cases:
        if ref is ZeroDivisionError:
            assert new is ZeroDivisionError
        else:
            assert_same(new, ref)


@given(gauss_rationals, st.integers(-6, 9))
@settings(max_examples=150, deadline=None)
def test_unary_ops_and_powers_match_reference(x, n):
    new_x, ref_x = ExactComplex(*x), ReferenceExactComplex(*x)
    assert_same(-new_x, -ref_x)
    assert_same(new_x.conjugate(), ref_x.conjugate())
    new, ref = outcome(pow, new_x, n), outcome(pow, ref_x, n)
    if ref is ZeroDivisionError:
        assert new is ZeroDivisionError
    else:
        assert_same(new, ref)


@given(gauss_rationals, operands)
@settings(max_examples=150, deadline=None)
def test_equality_matches_reference(x, operand):
    new_x, ref_x = ExactComplex(*x), ReferenceExactComplex(*x)
    new_y, ref_y = both(operand)
    assert (new_x == new_y) is (ref_x == ref_y)
    assert (new_y == new_x) is (ref_y == ref_x)
    assert (new_x != new_y) is (ref_x != ref_y)
    # a real value equals its own int or Fraction
    assert (new_x == x[0]) is (x[1] == 0)
    # equal values hash alike
    if new_x == new_y:
        assert hash(new_x) == hash(new_y)


@pytest.mark.parametrize("value", [0, 1, -3, 2 ** 70, F(1, 2), F(-7, 3)])
def test_real_value_and_its_int_or_fraction_are_one_set_element(value):
    assert len({ExactComplex(value), value}) == 1
    assert len({value, ExactComplex(value)}) == 1
    assert len({ReferenceExactComplex(value), value}) == 1


@pytest.mark.parametrize("re, im", [
    (0, 0), (True, False), (-7, 3), (F(-6, 4), 0), (0, F(5, -10)),
    (0.5, -0.25), ("-3/9", "2"), (Decimal("1.25"), 1),
])
def test_constructor_inputs_match_reference(re, im):
    assert_same(ExactComplex(re, im), ReferenceExactComplex(re, im))


@pytest.mark.parametrize("zero", [ExactComplex(0), ExactComplex(F(0), 0),
                                  0, F(0)])
def test_exact_zero_divisor_raises(zero):
    with pytest.raises(ZeroDivisionError):
        ExactComplex(1, 2) / zero
    with pytest.raises(ZeroDivisionError):
        F(1, 3) / ExactComplex.coerce(zero)
    with pytest.raises(ZeroDivisionError):
        ExactComplex.coerce(zero) ** -1


@pytest.mark.parametrize("value", [0.5, 1.0 + 0j, 2.0])
def test_float_is_not_coerced(value):
    with pytest.raises(TypeError):
        ExactComplex.coerce(value)
    for op in BINARY:
        with pytest.raises(TypeError):
            op(ExactComplex(1, 1), value)
        with pytest.raises(TypeError):
            op(value, ExactComplex(1, 1))


def test_immutable():
    with pytest.raises(AttributeError):
        ExactComplex(1).d = 2


def test_over_reduces_and_rejects_nonpositive_denominators():
    z = ExactComplex.over(6, -4, 8)
    assert_invariants(z)
    assert z == ExactComplex(F(3, 4), F(-1, 2)) and z.d == 4
    for d in (0, -8):
        with pytest.raises(ValueError):
            ExactComplex.over(6, -4, d)
