"""The scalar field: EXACT axioms, inference, and EXACT against FLOAT."""

from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qnls import transfer as tr
from qnls.exact import EXACT, FLOAT, ExactComplex, Field

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
    exact = tr.charge_coefficients_from_formulas(raps, c, field=EXACT)
    flt = tr.charge_coefficients_from_formulas(raps, c, field=FLOAT)
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
    files = sorted((ROOT / "src" / "qnls").glob("*.py")) \
        + sorted((ROOT / "scripts").glob("*.py"))
    assert files
    offenders = [f"{path.name}: {needle}" for path in files
                 for needle in ("exact_mode", "exact(0, 1) if")
                 if needle in path.read_text(encoding="utf-8")]
    assert offenders == []
