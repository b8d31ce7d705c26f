"""Transfer-matrix eigenvalue and its inverse-lambda expansion.

For a finite periodic box the transfer eigenvalue on a Bethe state is

    theta(lam) = e^{-i lam L/2} prod_j (1 + ic/(lam - k_j))
               + e^{+i lam L/2} prod_j (1 - ic/(lam - k_j)).

As lam -> -i*infinity the first branch is exponentially small, so the
expansion of e^{-i lam L/2} theta(lam) in powers of 1/lam is exactly the
expansion of the finite product prod_j (1 - ic/(lam - k_j)).  That
product expansion, carried out by exact series multiplication, is the
ground truth here ("product oracle").  Four printed coefficient tables
from the literature on this model are transcribed verbatim below and
compared coefficientwise against the oracle; several of their inner
signs are known to be inconsistent with the product expansion and are
flagged as expected mismatches rather than silently corrected.

Eigenvalue substitutions used when a table is written in terms of the
conserved charges: H0 -> N, H1 -> i*p1, H2 -> p2, H3 -> i^3*p3 with p_m
the rapidity power sums.  (The alternative reading H1 -> p1 is also
evaluated and reported; it breaks already at order 2.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .charges import power_sum
from .errors import PoleAtRapidity
from .exact import Field
from .laurent import LaurentSeries
from .report import judge

DEFAULT_ORDER = 6

# remainder_bound_check: fit and assert grids of t = |lambda|, bound slack
REMAINDER_T_FIT = (5.0, 7.0, 10.0, 14.0)
REMAINDER_T_ASSERT = (20.0, 30.0, 40.0, 50.0)
REMAINDER_SLACK = 1.25

SOURCES = (
    "charge_constants",          # operator-constant table A_0..A_3
    "eigenvalue_expansion",      # printed expansion of the eigenvalue product
    "log_eigenvalue_expansion",  # printed log expansion, rapidity form
    "log_operator_expansion",    # printed log expansion, charge-operator form
)

# (source, order) pairs where the printed tables are known to disagree
# with the product oracle: two inner signs of the eigenvalue expansion,
# the cubic-in-N term and the squared-H1 sign of the constant table, and
# a repeated-H2 slot in the operator-form log expansion.
EXPECTED_MISMATCHES = frozenset({
    ("charge_constants", 3),
    ("charge_constants", 4),
    ("eigenvalue_expansion", 2),
    ("eigenvalue_expansion", 3),
    ("log_operator_expansion", 4),
})


def theta(lam: complex, rapidities: Sequence[float], c: float, L: float) -> complex:
    """Transfer eigenvalue at spectral parameter lam (away from poles)."""
    lam = complex(lam)
    plus = 1.0 + 0.0j
    minus = 1.0 + 0.0j
    for k in rapidities:
        dk = lam - complex(k)
        if abs(dk) < 1e-12:
            raise PoleAtRapidity(f"lambda hits rapidity {k}")
        plus *= 1.0 + 1j * c / dk
        minus *= 1.0 - 1j * c / dk
    return np.exp(-1j * lam * L / 2.0) * plus + np.exp(1j * lam * L / 2.0) * minus


def asymptotic_product_series(rapidities: Sequence, c,
                              order: int = DEFAULT_ORDER) -> LaurentSeries:
    """Expansion of prod_j (1 - ic/(lam - k_j)) to the given order, in
    the field of the rapidities and the coupling.

    Per factor, -ic/(lam - k) = -ic sum_m k^m lam^{-m-1}; the factors are
    multiplied as truncated series.  This is the ground-truth oracle for
    the commuting-constant eigenvalues.
    """
    field = Field.of(*rapidities, c)
    minus_ic = -field.i * field.coerce(c)
    series = LaurentSeries.one(order, field)
    for k in rapidities:
        kv = field.coerce(k)
        coeffs = [field.one]
        power = field.one
        for _ in range(order):
            coeffs.append(minus_ic * power)
            power = power * kv
        series = series * LaurentSeries.from_coeffs(coeffs, field)
    return series


# ----------------------------------------------------------------------
# Printed coefficient tables, transcribed verbatim.  Each function
# returns the lambda^{-1}..lambda^{-4} coefficients of e^{-i lam L/2}
# theta(lam) or of its logarithm; the rapidity forms take the power sums
# p, the charge forms the charge values h = {1: H1, 2: H2, 3: H3}.
# ----------------------------------------------------------------------

PRINTED_ORDER = 4


def printed_charge_constants(n: int, h: dict, c, field: Field) -> list:
    i, one, frac = field.i, field.one, field.frac
    c = field.coerce(c)
    N = field.coerce(n)
    h1, h2, h3 = h[1], h[2], h[3]
    half = frac(1, 2)
    sixth = frac(1, 6)
    tw4 = frac(1, 24)
    a0 = -i * c * N
    a1 = -c * h1 - c * c * half * N * (N - one)
    a2 = (-i * c * h2 + i * c * c * (N - one) * h1
          - i * c * c * sixth * N * (N - one) * (N - 2 * one))
    a3 = (c * h3 - c * c * half * h1 * h1
          + c * c * (frac(3, 2) - N) * h2
          + c ** 3 * half * (N - one) * (N - 2 * one) * h1
          + c ** 4 * tw4 * N * (N - one) * (N - 2 * one) * (N - 3 * one))
    return [a0, a1, a2, a3]


def printed_eigenvalue_expansion(n: int, p: dict, c, field: Field) -> list:
    i, one, frac = field.i, field.one, field.frac
    c = field.coerce(c)
    N = field.coerce(n)
    half = frac(1, 2)
    m1 = -i * c * N
    m2 = -i * c * (p[1] + i * c * half * N * (N - one))
    m3 = -i * c * (p[2] + i * c * (N - one) * p[1]
                   - c * c * frac(1, 6) * N * (N - one) * (N - 2 * one))
    m4 = -i * c * (p[3]
                   - i * c * (N - frac(3, 2)) * p[2]
                   - i * c * half * p[1] * p[1]
                   - c * c * half * (N - one) * (N - 2 * one) * p[1]
                   + i * c ** 3 * frac(1, 24)
                   * N * (N - one) * (N - 2 * one) * (N - 3 * one))
    return [m1, m2, m3, m4]


def printed_log_eigenvalue_expansion(n: int, p: dict, c, field: Field) -> list:
    i, frac = field.i, field.frac
    c = field.coerce(c)
    N = field.coerce(n)
    m1 = -i * c * N
    m2 = -i * c * (p[1] + i * c * frac(1, 2) * N)
    m3 = -i * c * (p[2] + i * c * p[1] - c * c * frac(1, 3) * N)
    m4 = -i * c * (p[3] + i * c * frac(3, 2) * p[2]
                   - c * c * p[1] - i * c ** 3 * frac(1, 4) * N)
    return [m1, m2, m3, m4]


def printed_log_operator_expansion(n: int, h: dict, c, field: Field) -> list:
    i, frac = field.i, field.frac
    c = field.coerce(c)
    N = field.coerce(n)
    h1, h2, h3 = h[1], h[2], h[3]
    m1 = -i * c * N
    m2 = -c * (h1 - c * frac(1, 2) * N)
    m3 = -i * c * (h2 + c * h1 - c * c * frac(1, 3) * N)
    # the quadratic-coupling slot repeats H2 where the oracle wants H1
    m4 = c * (h3 + c * frac(3, 2) * h2 + c * c * h2
              - c ** 3 * frac(1, 4) * N)
    return [m1, m2, m3, m4]


# ----------------------------------------------------------------------
# Adjudication
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientVerdict:
    source: str
    order: int                 # power of 1/lambda
    printed: object            # both in the field of the adjudicated state
    oracle: object
    verdict: str               # pass | expected-mismatch | fail


@dataclass(frozen=True)
class ChargeCoefficientSet:
    """Oracle values A_0..A_3 plus per-source, per-order verdicts."""

    oracle: tuple              # lambda^{-1}..lambda^{-4} of the product
    oracle_log: tuple          # same orders of log(product)
    verdicts: tuple            # CoefficientVerdict entries
    h1_alternative: tuple      # verdicts under the H1 -> p1 reading

    def verdict_table(self) -> dict:
        table: dict = {}
        for v in self.verdicts:
            table.setdefault(v.source, {})[v.order] = v.verdict
        return table

    def has_unexpected_mismatch(self) -> bool:
        return any(v.verdict == "fail" for v in self.verdicts)


def charge_coefficients_from_formulas(rapidities: Sequence, c
                                      ) -> ChargeCoefficientSet:
    """Evaluate every printed table and compare with the product oracle,
    in the field of the rapidities and the coupling.

    Matches become ``pass``; mismatches at the documented (source, order)
    slots become ``expected-mismatch``; any other disagreement is a
    ``fail`` (and would indicate a transcription or oracle bug).  The
    oracle runs to ``PRINTED_ORDER``, the last order of the tables: a
    truncated product or log series fixes every coefficient up to its
    order, wherever it is truncated.
    """
    field = Field.of(*rapidities, c)
    n = len(rapidities)
    series = asymptotic_product_series(rapidities, c, PRINTED_ORDER)
    log_series = series.log()
    ks = [field.coerce(k) for k in rapidities]
    p = {m: power_sum(ks, m) for m in (1, 2, 3)}
    h = {1: field.i * p[1], 2: p[2], 3: (field.i ** 3) * p[3]}

    printed = {
        "charge_constants": printed_charge_constants(n, h, c, field),
        "eigenvalue_expansion": printed_eigenvalue_expansion(n, p, c, field),
        "log_eigenvalue_expansion":
            printed_log_eigenvalue_expansion(n, p, c, field),
        "log_operator_expansion":
            printed_log_operator_expansion(n, h, c, field),
    }
    oracle_for = {
        "charge_constants": series,
        "eigenvalue_expansion": series,
        "log_eigenvalue_expansion": log_series,
        "log_operator_expansion": log_series,
    }

    verdicts = []
    for source in SOURCES:
        for m, value in enumerate(printed[source], start=1):
            oracle_val = oracle_for[source].coefficient(m)
            verdict = judge("predicate", None, None,
                            field.equal(value, oracle_val),
                            expected=(source, m) in EXPECTED_MISMATCHES)
            verdicts.append(CoefficientVerdict(source, m, value, oracle_val,
                                               verdict))

    alt = []
    h_alt = {**h, 1: p[1]}
    for source, table in (
            ("charge_constants", printed_charge_constants(n, h_alt, c, field)),
            ("log_operator_expansion",
             printed_log_operator_expansion(n, h_alt, c, field))):
        for m, value in enumerate(table, start=1):
            oracle_val = oracle_for[source].coefficient(m)
            alt.append(CoefficientVerdict(
                source, m, value, oracle_val,
                "pass" if field.equal(value, oracle_val) else "mismatch"))

    return ChargeCoefficientSet(
        oracle=tuple(series.coefficient(m) for m in range(1, 5)),
        oracle_log=tuple(log_series.coefficient(m) for m in range(1, 5)),
        verdicts=tuple(verdicts),
        h1_alternative=tuple(alt),
    )


def remainder_bound_check(rapidities: Sequence[float], c: float,
                          L: float) -> float:
    """Truncated-series error versus direct theta evaluation on the ray
    lam = -i t, at order DEFAULT_ORDER, as the largest ratio of error to
    bound.

    The constant C of the next-order bound C * t^-(order+1) is fitted on
    the small-t grid; the large-t grid must then satisfy the extrapolated
    bound, a ratio of at most 1, which fails if the true error decays
    slower than the claimed order.
    """
    order = DEFAULT_ORDER
    ks = [float(k) for k in rapidities]
    series = asymptotic_product_series(ks, float(c), order)

    def err(t: float) -> float:
        lam = -1j * t
        # e^{-i lam L/2} theta(lam), assembled without huge intermediates
        plus = np.prod([1.0 + 1j * c / (lam - k) for k in ks]) if ks else 1.0
        minus = np.prod([1.0 - 1j * c / (lam - k) for k in ks]) if ks else 1.0
        direct = np.exp(-1j * lam * L) * plus + minus
        return abs(direct - series.eval_at(lam))

    floor = 1e-13  # rounding floor of the O(1) direct evaluation
    C = max(err(t) * t ** (order + 1) for t in REMAINDER_T_FIT)
    # np.max, so that a NaN error is not dropped
    return float(np.max([err(t) / (REMAINDER_SLACK * C * t ** (-(order + 1))
                                   + floor) for t in REMAINDER_T_ASSERT]))
