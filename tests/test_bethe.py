"""Finite-box root equations: convergence, residuals, covariances."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnls.bethe import (BoxSpec, QuantumNumbers, ground_state_quantum_numbers,
                        perturbed_product_residual, solve)
from qnls.errors import DomainError

BOX_L = 2.0 * math.pi


class TestQuantumNumbers:
    def test_ground_state_examples(self):
        assert ground_state_quantum_numbers(3).I == (F(-1), F(0), F(1))
        assert ground_state_quantum_numbers(2).I == (F(-1, 2), F(1, 2))
        assert ground_state_quantum_numbers(4).I == \
            (F(-3, 2), F(-1, 2), F(1, 2), F(3, 2))

    def test_wrong_parity_rejected(self):
        with pytest.raises(DomainError):
            QuantumNumbers.of([0, 1])  # even N needs half-odd integers

    def test_non_increasing_rejected(self):
        with pytest.raises(DomainError):
            QuantumNumbers.of([1, 0, 2])


class TestSolve:
    def test_single_particle_exact(self):
        sol = solve(BoxSpec(BOX_L, 1.0, 1), QuantumNumbers.of([4]))
        assert sol.rapidities.values[0] == pytest.approx(
            2.0 * math.pi * 4 / BOX_L, abs=1e-14)
        assert sol.residual_product < 1e-14

    def test_impenetrable_limit(self):
        sol = solve(BoxSpec(BOX_L, 1e6, 2), ground_state_quantum_numbers(2))
        k = sol.rapidities.values
        assert k[0] == pytest.approx(-0.5, abs=1e-5)
        assert k[1] == pytest.approx(0.5, abs=1e-5)

    def test_small_coupling_converges(self):
        sol = solve(BoxSpec(BOX_L, 1e-3, 2), ground_state_quantum_numbers(2))
        assert sol.residual_product < 1e-10
        k = sol.rapidities.values
        assert 0 < k[1] < 0.1  # roots coalesce toward the free double root

    @pytest.mark.parametrize("c", [0.1, 1.0, 10.0, 1e4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_product_residual_grid(self, n, c):
        box = BoxSpec(BOX_L, c, n)
        sol = solve(box, ground_state_quantum_numbers(n))
        assert sol.residual_product < 1e-10
        assert sol.jacobian_min_eigenvalue > 0

    @pytest.mark.parametrize("c", [1e-320, 1e-200])
    def test_subnormal_coupling(self, c):
        # the phase ratios overflow to +-inf and the Jacobian's diagonal
        # kernel has a zero denominator, neither with a RuntimeWarning
        sol = solve(BoxSpec(6.0, c, 2), ground_state_quantum_numbers(2))
        assert np.max(np.abs(sol.rapidities.values)) < 1e-15
        assert sol.residual_log < 1e-12

    def test_repulsive_only(self):
        with pytest.raises(DomainError):
            solve(BoxSpec(BOX_L, -2.0, 1), QuantumNumbers.of([0]))

    def test_no_particles_rejected(self):
        # BoxSpec and QuantumNumbers both accept N = 0; the residual of
        # no roots has no maximum
        with pytest.raises(DomainError, match="at least one particle"):
            solve(BoxSpec(BOX_L, 1.0, 0), QuantumNumbers.of([]))

    def test_quantum_number_count_must_match(self):
        with pytest.raises(DomainError):
            solve(BoxSpec(BOX_L, 1.0, 3), ground_state_quantum_numbers(2))

    def test_iteration_budget_enforced(self, monkeypatch):
        import qnls.bethe as mod
        monkeypatch.setattr(mod, "MAX_ITERATIONS", 0)
        with pytest.raises(mod.SolverDiverged):
            solve(BoxSpec(BOX_L, 1.0, 2), ground_state_quantum_numbers(2))

    @pytest.mark.parametrize("L, c", [(math.nan, 1.0), (1.0, math.nan),
                                      (math.inf, 1.0)],
                             ids=["box-nan", "coupling-nan", "box-inf"])
    def test_non_finite_box_rejected(self, L, c):
        with pytest.raises(DomainError, match="finite"):
            BoxSpec(L, c, 2)

    def test_nan_residual_is_not_convergence(self, monkeypatch):
        """A NaN residual fails every tolerance test: the solver raises
        instead of returning the seed after zero iterations."""
        import qnls.bethe as mod
        monkeypatch.setattr(mod, "_log_residual",
                            lambda k, box, I: np.full_like(k, np.nan))
        with pytest.raises(mod.SolverDiverged):
            solve(BoxSpec(BOX_L, 1.0, 2), ground_state_quantum_numbers(2))

    def test_product_residual_propagates_nan(self):
        import qnls.bethe as mod
        box = BoxSpec(BOX_L, 1.0, 3)
        with np.errstate(invalid="ignore"):
            defect = mod._product_residual(np.array([0.1, np.nan, 0.3]), box)
        assert math.isnan(defect)
        assert mod._product_residual(np.array([]), box) == 0.0

    def test_no_descent_raises_in_first_step(self, monkeypatch):
        """When no halving of the Newton step lowers the residual, the
        solver raises at once instead of taking the worse step."""
        import qnls.bethe as mod
        calls = []

        def flat_residual(k, box, I):
            calls.append(k.copy())
            return np.ones_like(k)

        monkeypatch.setattr(mod, "_log_residual", flat_residual)
        with pytest.raises(mod.SolverDiverged, match="Newton step 1:"):
            solve(BoxSpec(BOX_L, 1.0, 2), ground_state_quantum_numbers(2))
        assert len(calls) == 1 + mod.MAX_HALVINGS + 1


class TestCovariances:
    def test_shift_covariance(self):
        base = solve(BoxSpec(BOX_L, 1.0, 3), ground_state_quantum_numbers(3))
        shifted = solve(BoxSpec(BOX_L, 1.0, 3), QuantumNumbers.of([2, 3, 4]))
        k0 = np.array(base.rapidities.values)
        k1 = np.array(shifted.rapidities.values)
        assert np.max(np.abs(k1 - k0 - 3 * 2.0 * math.pi / BOX_L)) < 1e-12

    @given(st.integers(1, 4), st.floats(0.3, 30.0))
    @settings(max_examples=20, deadline=None)
    def test_parity_antisymmetry(self, n, c):
        qn = ground_state_quantum_numbers(n)
        minus = QuantumNumbers.of([-v for v in reversed(qn.I)])
        kp = np.array(solve(BoxSpec(BOX_L, c, n), qn).rapidities.values)
        km = np.array(solve(BoxSpec(BOX_L, c, n), minus).rapidities.values)
        assert np.max(np.abs(km + kp[::-1])) < 1e-12

    def test_monotonicity_in_quantum_number(self):
        base = QuantumNumbers.of([F(-1, 2), F(1, 2)])
        bumped = QuantumNumbers.of([F(-1, 2), F(3, 2)])
        k0 = solve(BoxSpec(BOX_L, 2.0, 2), base).rapidities.values
        k1 = solve(BoxSpec(BOX_L, 2.0, 2), bumped).rapidities.values
        assert k1[1] > k0[1]

    def test_perturbed_root_detected(self):
        box = BoxSpec(BOX_L, 1.0, 3)
        sol = solve(box, ground_state_quantum_numbers(3))
        assert perturbed_product_residual(sol, 1e-3) > 1e-4


class TestReporting:
    def test_solution_document(self):
        sol = solve(BoxSpec(BOX_L, 1.0, 2), ground_state_quantum_numbers(2))
        doc = sol.to_json_dict()
        assert doc["quantum_numbers"] == ["-1/2", "1/2"]
        assert "quantum_number_convention" in doc
        assert doc["residual_product"] < 1e-10
        assert doc["iterations"] >= 1
