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
    def test_differing_coefficients_counts_exactly(self):
        """A difference below float resolution still counts."""
        a = LaurentSeries.from_coeffs([1, F(1, 3), 2], EXACT)
        b = LaurentSeries.from_coeffs([1, F(1, 3) + F(1, 10 ** 400), 5], EXACT)
        assert a.differing_coefficients(a) == 0
        assert a.differing_coefficients(b) == 2
        with pytest.raises(ValueError):
            a.differing_coefficients(LaurentSeries.from_coeffs([1, 2], EXACT))

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


# ----------------------------------------------------------------------
# The kernels against the per-term recurrences they replaced
# ----------------------------------------------------------------------

def reference_mul(x: LaurentSeries, y: LaurentSeries) -> LaurentSeries:
    field = x.field
    out = [field.zero] * (x.order + 1)
    for i, a in enumerate(x.coeffs):
        if field.is_zero(a):
            continue
        for j in range(x.order + 1 - i):
            out[i + j] = out[i + j] + a * y.coeffs[j]
    return LaurentSeries(x.order, tuple(out), field)


def reference_log(s: LaurentSeries) -> LaurentSeries:
    a, b = s.coeffs, [s.field.zero] * (s.order + 1)
    for n in range(1, s.order + 1):
        acc = a[n]
        for k in range(1, n):
            acc = acc - b[k] * a[n - k] * k / n
        b[n] = acc
    return LaurentSeries(s.order, tuple(b), s.field)


def reference_exp(s: LaurentSeries) -> LaurentSeries:
    b, a = s.coeffs, [s.field.one] + [s.field.zero] * s.order
    for n in range(1, s.order + 1):
        acc = s.field.zero
        for k in range(1, n + 1):
            acc = acc + b[k] * a[n - k] * k / n
        a[n] = acc
    return LaurentSeries(s.order, tuple(a), s.field)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def factor_lists(draw):
    """1 to 4 series of one order up to 72 with unit leading coefficient
    and rational tails, some entries zero."""
    order = draw(st.integers(1, 72))
    tail = st.lists(st.tuples(rationals, rationals), min_size=order,
                    max_size=order)
    return [[(1, 0)] + draw(tail) for _ in range(draw(st.integers(1, 4)))]


def triples(series):
    return [(z.a, z.b, z.d) for z in series.coeffs]


def bits(series):
    return [(z.real.hex(), z.imag.hex()) for z in series.coeffs]


class TestKernels:
    """Products, log and exp against the per-term recurrences: the same
    (re, im, den) triples in EXACT, the same bits in FLOAT."""

    @pytest.mark.parametrize("field", [EXACT, FLOAT])
    @given(factor_lists())
    @settings(max_examples=12, deadline=None)
    def test_match_per_term_recurrences(self, field, factors):
        view = triples if field is EXACT else bits
        scalar = exact if field is EXACT \
            else (lambda re, im: complex(float(re), float(im)))
        series = [LaurentSeries.from_coeffs([scalar(*p) for p in f], field)
                  for f in factors]
        product = expected = series[0]
        for s in series[1:]:
            product, expected = product * s, reference_mul(expected, s)
            assert view(product) == view(expected)
        log = product.log()
        assert view(log) == view(reference_log(product))
        assert view(log.exp()) == view(reference_exp(log))
