"""Transfer eigenvalue, product-expansion oracle and table adjudication."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnls import transfer as tr
from qnls.bethe import BoxSpec, ground_state_quantum_numbers, solve
from qnls.errors import PoleAtRapidity
from qnls.exact import EXACT, exact
from qnls.laurent import LaurentSeries

BOX_L = 2.0 * math.pi


class TestTheta:
    def test_vacuum_is_cosine(self):
        for lam in (0.3, 1.7, -2.2):
            assert tr.theta(lam, [], 1.0, BOX_L) == pytest.approx(
                2.0 * math.cos(lam * BOX_L / 2.0))

    def test_pole_guard(self):
        with pytest.raises(PoleAtRapidity):
            tr.theta(1.0, [1.0], 1.0, BOX_L)

    def test_direct_reevaluation(self):
        # independent single-factor evaluation at lam = -i, k = 0
        lam, c = -1j, 1.0
        formula = tr.theta(lam, [0.0], c, BOX_L)
        direct = (np.exp(-1j * lam * BOX_L / 2) * (1 + 1j * c / lam)
                  + np.exp(1j * lam * BOX_L / 2) * (1 - 1j * c / lam))
        assert abs(formula - direct) < 1e-14 * abs(direct)

    def test_dominant_branch_at_deep_lambda(self):
        ks = [-0.4, 0.9]
        c, t = 1.3, 4.0
        lam = -1j * t
        prod_minus = np.prod([1 - 1j * c / (lam - k) for k in ks])
        lhs = np.exp(-1j * lam * BOX_L / 2) * tr.theta(lam, ks, c, BOX_L)
        # exponentially small second branch, plus the rounding floor
        assert abs(lhs - prod_minus) < 2.0 * math.exp(-t * BOX_L) + 1e-14


class TestProductOracle:
    def test_single_particle_at_origin(self):
        s = tr.asymptotic_product_series([F(0)], F(2), order=4)
        assert [complex(v) for v in s.coeffs] == [1, -2j, 0, 0, 0]

    def test_single_particle_geometric(self):
        k, c = F(3), F(2)
        s = tr.asymptotic_product_series([k], c, order=5)
        for m in range(1, 6):
            assert s.coefficient(m) == exact(0, -c) * exact(k) ** (m - 1)

    def test_pair_second_coefficient(self):
        s = tr.asymptotic_product_series([F(1), F(2)], F(1))
        assert s.coefficient(2) == exact(-1, -3)  # -ic(k1+k2) - c^2

    def test_symmetric_in_rapidities(self):
        a = tr.asymptotic_product_series([F(-1), F(1, 2), F(3)], F(1, 2))
        b = tr.asymptotic_product_series([F(3), F(-1), F(1, 2)], F(1, 2))
        assert a == b

    def test_depends_only_on_low_power_sums(self):
        a = tr.asymptotic_product_series([1, -1, 8, -8], F(2))
        b = tr.asymptotic_product_series([4, -4, 7, -7], F(2))
        for m in range(1, 5):
            assert a.coefficient(m) == b.coefficient(m)
        assert sum(k ** 4 for k in (1, -1, 8, -8)) != \
            sum(k ** 4 for k in (4, -4, 7, -7))

    def test_log_orders_closed_form(self):
        ks, c = [F(1), F(2)], F(1)
        log = tr.asymptotic_product_series(ks, c).log()
        p1, p2, p3, n = 3, 5, 9, 2
        assert complex(log.coefficient(1)) == -1j * n
        assert complex(log.coefficient(2)) == -1j * p1 + n / 2
        assert complex(log.coefficient(3)) == -1j * p2 + p1 + 1j * n / 3
        assert complex(log.coefficient(4)) == \
            pytest.approx(-1j * p3 + 1.5 * p2 + 1j * p1 - n / 4)

    def test_scalar_log_expansion(self):
        k, c, order = F(2, 3), F(5, 4), 6
        base = tr.asymptotic_product_series([k], c, order)
        total = LaurentSeries.from_coeffs([0] * (order + 1), EXACT)
        power = LaurentSeries.one(order, EXACT)
        u = base - LaurentSeries.one(order, EXACT)
        for m in range(1, order + 1):
            power = power * u
            total = total + power.scale(F((-1) ** (m + 1), m))
        assert base.log() == total


@pytest.fixture(scope="module")
def result():
    return tr.charge_coefficients_from_formulas([F(1), F(2), F(3)], F(3, 2))


class TestAdjudication:

    def test_first_constant_matches(self, result):
        table = result.verdict_table()["charge_constants"]
        assert table[1] == "pass"
        assert complex(result.oracle[0]) == pytest.approx(-1j * 1.5 * 3)

    def test_second_constant_matches(self, result):
        # -ic p1 - (c^2/2) N (N-1) with p1 = 6
        assert result.verdict_table()["charge_constants"][2] == "pass"
        c = 1.5
        assert complex(result.oracle[1]) == pytest.approx(
            -1j * c * 6 - c * c / 2 * 3 * 2)

    def test_documented_mismatches_flagged(self, result):
        flagged = {(v.source, v.order) for v in result.verdicts
                   if v.verdict == "expected-mismatch"}
        assert flagged == set(tr.EXPECTED_MISMATCHES)
        assert not result.has_unexpected_mismatch()

    def test_log_eigenvalue_table_fully_consistent(self, result):
        assert all(v == "pass" for v in
                   result.verdict_table()["log_eigenvalue_expansion"].values())

    def test_alternative_momentum_reading_fails_early(self, result):
        bad = [v.order for v in result.h1_alternative
               if v.source == "charge_constants" and v.verdict != "pass"]
        assert 2 in bad

    def test_symmetric_state_hides_some_slots(self):
        # with p1 = 0 and c = 1 several documented slots coincide
        res = tr.charge_coefficients_from_formulas([F(-1), F(0), F(1)], F(1))
        table = res.verdict_table()["charge_constants"]
        assert table[4] == "pass"  # squared-momentum term vanishes
        assert not res.has_unexpected_mismatch()

    @given(st.sets(st.fractions(min_value=-5, max_value=5, max_denominator=4),
                   min_size=1, max_size=4),
           st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3))
    @settings(max_examples=25, deadline=None)
    def test_never_unexpected(self, raps, c):
        res = tr.charge_coefficients_from_formulas(sorted(raps), c)
        assert not res.has_unexpected_mismatch()

    @given(st.sets(st.fractions(min_value=-5, max_value=5, max_denominator=4),
                   min_size=1, max_size=4),
           st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3),
           st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_truncation_fixes_the_printed_orders(self, raps, c, as_float):
        # the adjudication expands to PRINTED_ORDER: a longer product or log
        # series has the same first coefficients, bit for bit in floats
        ks = sorted(raps)
        if as_float:
            ks, c = [float(k) for k in ks], float(c)
        short = tr.asymptotic_product_series(ks, c, tr.PRINTED_ORDER)
        long = tr.asymptotic_product_series(ks, c, tr.DEFAULT_ORDER)
        for a, b in ((short, long), (short.log(), long.log())):
            assert a.coeffs == b.coeffs[:tr.PRINTED_ORDER + 1]

    def test_solved_states_consistent(self):
        for n in (1, 2, 3, 4):
            sol = solve(BoxSpec(BOX_L, 1.7, n), ground_state_quantum_numbers(n))
            ks = [float(v) for v in sol.rapidities.values]
            res = tr.charge_coefficients_from_formulas(ks, 1.7)
            assert not res.has_unexpected_mismatch()
            table = res.verdict_table()["charge_constants"]
            assert table[1] == "pass" and table[2] == "pass"


class TestLogSeriesCheck:
    """The log rows of the adjudication: log(product oracle) against the
    two printed logarithmic tables."""

    @staticmethod
    def log_rows(full):
        return [v for v in full.verdicts if v.source in
                ("log_eigenvalue_expansion", "log_operator_expansion")]

    def test_report_structure(self):
        full = tr.charge_coefficients_from_formulas([F(1), F(2), F(3)], F(3, 2))
        rows = self.log_rows(full)
        assert all(v.verdict != "fail" for v in rows)
        sources = {v.source for v in rows}
        assert sources == {"log_eigenvalue_expansion", "log_operator_expansion"}
        assert complex(full.oracle_log[0]) == pytest.approx(-1j * 1.5 * 3)

    def test_operator_form_flagged_at_order_four(self):
        full = tr.charge_coefficients_from_formulas([F(1), F(2), F(3)], F(3, 2))
        verdicts = {(v.source, v.order): v.verdict for v in self.log_rows(full)}
        assert verdicts[("log_operator_expansion", 4)] == "expected-mismatch"
        assert verdicts[("log_eigenvalue_expansion", 4)] == "pass"


class TestRemainderBound:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_truncation_error_within_next_order(self, n):
        sol = solve(BoxSpec(BOX_L, 1.0, n), ground_state_quantum_numbers(n))
        ks = [float(v) for v in sol.rapidities.values]
        ratio = tr.remainder_bound_check(ks, 1.0, BOX_L)
        assert ratio <= 1.0, ratio
