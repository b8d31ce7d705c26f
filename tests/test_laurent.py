"""Truncated series arithmetic."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from qnls import transfer as tr
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


def closed_form_log(ks, c, order):
    """log prod_j (1 - ic/(lam - k_j)) from 1 - ic/(lam - k) =
    (lam - k - ic)/(lam - k): its lam^{-m} coefficient is
    sum_j [k_j^m - (k_j + ic)^m]/m."""
    shifted = [(exact(k), exact(k, c)) for k in ks]
    return LaurentSeries.from_coeffs(
        [0] + [sum((k ** m - kc ** m for k, kc in shifted), exact(0)) / m
               for m in range(1, order + 1)], EXACT)


class TestClosedFormLog:
    @given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4),
                    min_size=1, max_size=6),
           st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4),
           st.integers(1, 72))
    @example([F(-3), F(1, 2), F(5, 4), F(2), F(-5, 3), F(6)], F(3, 2), 72)
    @settings(max_examples=12, deadline=None)
    def test_series_log_matches_closed_form(self, ks, c, order):
        series = tr.asymptotic_product_series(ks, c, order)
        closed = closed_form_log(ks, c, order)
        assert series.log() == closed
        assert closed.exp() == series
        assert series.log().exp() == series
