"""Finite-box Bethe equations for the repulsive delta Bose gas.

The periodic N-particle momenta satisfy

    exp(i k_l L) = prod_{j != l} (k_l - k_j + i c) / (k_l - k_j - i c).

Taking logarithms with the arctan branch turns this into the monotone
system

    k_l L + sum_{j != l} 2 atan((k_l - k_j) / c) = 2 pi I_l,

whose quantum numbers I_l are integers for odd N and half-odd integers
for even N, strictly increasing for distinct real roots.  The log form
is solved by damped Newton iteration (the Jacobian is strictly
diagonally dominant for c > 0); the product form is only used as an
independent residual on the returned roots.

Conventions recorded in every emitted report:
  * quantum numbers: integers (N odd) / half-odd integers (N even);
  * ground state: I = (-(N-1)/2, ..., (N-1)/2);
  * initial Newton guess k = 2 pi I / L (exact in the impenetrable
    limit c -> infinity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DomainError, SolverDiverged
from .planewaves import RapiditySet

MAX_ITERATIONS = 200
MAX_HALVINGS = 8
LOG_TOL = 1e-12

QUANTUM_NUMBER_CONVENTION = (
    "integers for odd N, half-odd integers for even N; "
    "ground state I = (-(N-1)/2, ..., (N-1)/2)")


@dataclass(frozen=True)
class BoxSpec:
    """Periodic box of length L with coupling c and N particles."""

    L: float
    c: float
    N: int

    def __post_init__(self):
        if not (math.isfinite(self.L) and math.isfinite(self.c)):
            raise DomainError("box length and coupling must be finite")
        if self.L <= 0:
            raise DomainError("box length must be positive")
        if self.N < 0:
            raise DomainError("particle count must be non-negative")


@dataclass(frozen=True)
class QuantumNumbers:
    """Strictly increasing branch labels of the log-form equations."""

    I: tuple

    @staticmethod
    def of(values: Sequence) -> "QuantumNumbers":
        vals = tuple(Fraction(v) for v in values)
        if any(a >= b for a, b in zip(vals, vals[1:])):
            raise DomainError("quantum numbers must be strictly increasing")
        n = len(vals)
        parity = Fraction(n - 1, 2)
        for v in vals:
            if (v - parity).denominator != 1:
                raise DomainError(
                    "quantum numbers must be integers (odd N) or "
                    "half-odd integers (even N)")
        return QuantumNumbers(vals)

    def as_floats(self) -> np.ndarray:
        return np.array([float(v) for v in self.I], dtype=float)

    def __len__(self):
        return len(self.I)


def ground_state_quantum_numbers(n: int) -> QuantumNumbers:
    """Symmetric ladder I = (-(N-1)/2, ..., (N-1)/2)."""
    if n < 1:
        raise DomainError("need at least one particle")
    return QuantumNumbers.of([Fraction(2 * m - (n - 1), 2) for m in range(n)])


@dataclass(frozen=True)
class RapiditySolution:
    """Converged root set with residual diagnostics."""

    rapidities: RapiditySet
    box: BoxSpec
    quantum_numbers: QuantumNumbers
    residual_log: float
    residual_product: float
    iterations: int
    jacobian_min_eigenvalue: float

    def to_json_dict(self) -> dict:
        return {
            "n": self.box.N,
            "box_length": self.box.L,
            "coupling": self.box.c,
            "quantum_numbers": [str(v) for v in self.quantum_numbers.I],
            "quantum_number_convention": QUANTUM_NUMBER_CONVENTION,
            "rapidities": [float(v) for v in self.rapidities.values],
            "residual_log": self.residual_log,
            "residual_product": self.residual_product,
            "iterations": self.iterations,
            "jacobian_min_eigenvalue": self.jacobian_min_eigenvalue,
        }


def _log_residual(k: np.ndarray, box: BoxSpec, I: np.ndarray) -> np.ndarray:
    diff = k[:, None] - k[None, :]
    phases = 2.0 * np.arctan(diff / box.c)
    np.fill_diagonal(phases, 0.0)
    return k * box.L + phases.sum(axis=1) - 2.0 * np.pi * I


def _log_jacobian(k: np.ndarray, box: BoxSpec) -> np.ndarray:
    diff = k[:, None] - k[None, :]
    kernel = 2.0 * box.c / (box.c ** 2 + diff ** 2)
    np.fill_diagonal(kernel, 0.0)
    jac = -kernel
    jac[np.diag_indices_from(jac)] = box.L + kernel.sum(axis=1)
    return jac


def solve(box: BoxSpec, qn: QuantumNumbers) -> RapiditySolution:
    """Damped Newton iteration on the log form, seeded at k = 2 pi I / L.

    Raises ``SolverDiverged`` when no halving of a Newton step lowers the
    residual, or after MAX_ITERATIONS steps."""
    if box.c <= 0:
        raise DomainError("repulsive coupling required (c > 0)")
    if len(qn) != box.N:
        raise DomainError("quantum-number count must match N")
    I = qn.as_floats()
    k = 2.0 * np.pi * I / box.L
    res = _log_residual(k, box, I)
    iterations = 0
    # a NaN residual is never within tolerance: it ends in SolverDiverged
    while not np.max(np.abs(res)) <= LOG_TOL * max(1.0, box.L):
        if iterations >= MAX_ITERATIONS:
            raise SolverDiverged(
                f"no convergence after {MAX_ITERATIONS} Newton steps")
        jac = _log_jacobian(k, box)
        step = np.linalg.solve(jac, -res)
        norm0 = np.max(np.abs(res))
        scale = 1.0
        for _ in range(MAX_HALVINGS + 1):
            trial = k + scale * step
            trial_res = _log_residual(trial, box, I)
            if np.max(np.abs(trial_res)) < norm0:
                break
            scale *= 0.5
        else:
            raise SolverDiverged(
                f"Newton step {iterations + 1}: no trial step among "
                f"{MAX_HALVINGS + 1} halvings lowers the residual")
        k, res = trial, trial_res
        iterations += 1

    jac = _log_jacobian(k, box)
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (jac + jac.T))))
    solution = RapiditySolution(
        rapidities=RapiditySet.of([float(v) for v in k]),
        box=box,
        quantum_numbers=qn,
        residual_log=float(np.max(np.abs(res))),
        residual_product=_product_residual(k, box),
        iterations=iterations,
        jacobian_min_eigenvalue=min_eig,
    )
    return solution


def _product_residual(k: np.ndarray, box: BoxSpec) -> float:
    defects = [0.0]
    for l in range(len(k)):
        lhs = np.exp(1j * k[l] * box.L)
        rhs = 1.0 + 0.0j
        for j in range(len(k)):
            if j == l:
                continue
            rhs *= (k[l] - k[j] + 1j * box.c) / (k[l] - k[j] - 1j * box.c)
        defects.append(abs(lhs - rhs))
    # np.max propagates NaN, where max(0.0, nan) would keep 0.0
    return float(np.max(defects))


def perturbed_product_residual(sol: RapiditySolution, shift: float) -> float:
    """Sensitivity control: product residual after shifting one root."""
    k = np.array([float(v) for v in sol.rapidities.values])
    k[0] += shift
    return _product_residual(k, sol.box)
