"""Truncated series arithmetic."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qnls.exact import EXACT, FLOAT, exact
from qnls.laurent import LaurentSeries


def unit_series(order=6):
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    pair = st.tuples(coeff, coeff).map(lambda p: exact(p[0], p[1]))
    return st.lists(pair, min_size=order, max_size=order).map(
        lambda tail: LaurentSeries.from_coeffs([exact(1)] + tail, EXACT))


class TestArithmetic:
    def test_multiplication_truncates(self):
        a = LaurentSeries.from_coeffs([1, 2, 3], EXACT)
        b = LaurentSeries.from_coeffs([1, -1, 0], EXACT)
        prod = a * b
        assert prod.order == 2
        assert [complex(c) for c in prod.coeffs] == [1, 1, 1]

    def test_eval_partial_sum(self):
        s = LaurentSeries.from_coeffs([1.0, 2.0, 4.0], FLOAT)
        lam = 2.0
        assert s.eval_at(lam) == pytest.approx(1 + 1 + 1)

    def test_log_requires_unit_lead(self):
        s = LaurentSeries.from_coeffs([2, 1], EXACT)
        with pytest.raises(ValueError):
            s.log()

    def test_exp_requires_zero_lead(self):
        s = LaurentSeries.from_coeffs([1, 1], EXACT)
        with pytest.raises(ValueError):
            s.exp()

    @given(st.integers(1, 12).flatmap(unit_series))
    @settings(max_examples=30, deadline=None)
    def test_exp_log_roundtrip(self, s):
        assert s.log().exp() == s

    @given(unit_series(order=4), unit_series(order=4))
    @settings(max_examples=20, deadline=None)
    def test_log_of_product_adds(self, a, b):
        assert (a * b).log() == a.log() + b.log()
