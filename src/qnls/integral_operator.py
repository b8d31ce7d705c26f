"""Shift-generating integral operator on few-particle sector functions.

For Im(lambda) < 0 the operator acts on a symmetric N-particle function
f, on the ordered region x_1 < ... < x_N, as the identity plus one
nested-integral term per nonempty coordinate subset i_1 < ... < i_n:

    g(x) = f(x) + sum_n c^n sum_{i_1<...<i_n}
           int_{x_{i_n}}^{inf} dxi_n ... int_{x_{i_1}}^{x_{i_2}} dxi_1
           exp[i lam sum_m (x_{i_m} - xi_m)]
           f(... x_{i_m} replaced by xi_m ...),

i.e. the selected coordinates of f are moved to the integration
variables while the others stay put.  Whenever an integration variable
crosses a remaining coordinate the region form of f changes, so each
integral is split at those coordinates; every piece is then a product
of one-dimensional exponential integrals in closed form.  The result is
again a finite plane-wave sum, now with frequencies shifted by lambda,
and in exact mode (rational rapidities, coupling and lambda) every
identity below is an equality of coefficients:

  * diagonality on Bethe states with eigenvalue
        prod_j (lam - l_j - ic) / (lam - l_j),
    the surviving branch of the finite-box transfer eigenvalue as
    lam -> -i*infinity (the eigenvalue itself is derived here, by the
    exact N = 1, 2, 3 computations, not quoted);
  * the boundary value problem
        prod_j (lam + i d_j) g = prod_j (lam + i d_j - ic) f
    with preservation of the pair bracket [c f + (d_j - d_{j+1}) f] on
    every hyperplane;
  * the inverse-lambda expansion of g, whose exp(i lam (x - y)) boundary
    terms are the same order as the retained terms at separations of
    order 1/|lambda| -- the non-uniformity that invalidates naive
    term-by-term ordering of the expansion beyond third order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .charges import boundary_residual_h2, gauss_rule
from .errors import ConvergenceDomain, SizeLimit
from .exact import EXACT, FLOAT, Field
from .planewaves import BetheWavefunction, ExpPoly, GaussInt


@dataclass(frozen=True)
class SpectralParameter:
    """Spectral parameter restricted to the lower half plane."""

    value: object  # complex or ExactComplex

    def __post_init__(self):
        if not self.value.imag < 0:
            raise ConvergenceDomain("need Im(lambda) < 0 for convergent integrals")

    @property
    def field(self) -> Field:
        return Field.of(self.value)


# Bethe states take 43,440 pre-merge terms at N = 5 and 972,720 at N = 6
MAX_APPLY_TERMS = 100_000

# eigenvalue_check samples A f / f at ordered tuples of EIGEN_GRID values;
# nonuniformity_scan evaluates at pairs (x, SCAN_Y)
EIGEN_GRID = 7
SCAN_Y = 1.0


def apply_A_term_count(n: int, terms: int) -> int:
    """Pre-merge term count of ``apply_A`` on ``terms`` terms in n
    variables: per term, the identity plus, over coordinate subsets and
    their integration pieces q, the product of the pieces' end counts
    (2, or 1 for q = n - 1, whose upper end is +infinity).  The sum over
    pieces factorizes, so chains[a] sums the subsets that start at a."""
    chains = [0] * n
    for a in reversed(range(n)):
        chains[a] = 2 * (n - a) - 1 + sum(2 * (b - a) * chains[b]
                                          for b in range(a + 1, n))
    return terms * (1 + sum(chains))


def apply_A(lam: SpectralParameter, f: ExpPoly, c) -> ExpPoly:
    """Closed-form action of the integral operator on the ordered-region
    form f of a symmetric function.

    Every nested integral of exponentials is evaluated exactly; the
    convergence of the outermost (improper) integral is guaranteed by
    Im(lambda) < 0 against the real input frequencies.  Raises
    ``SizeLimit``, before building anything, past ``MAX_APPLY_TERMS``,
    and ``ConvergenceDomain`` for an input frequency off the real axis.

    Exact mode runs on the integer core of ``planewaves``: in units of
    1/U, U the common denominator of the frequencies, lambda and c, all
    three are Gaussian integers, and 1/(i mu) = U (-i) conj(mu) / |mu|^2
    puts each new term over its own integer denominator; the sum is
    brought over their least common multiple at the end.
    """
    n = f.num_vars
    count = apply_A_term_count(n, f.term_count())
    if count > MAX_APPLY_TERMS:
        raise SizeLimit(f"apply_A on N={n} would build {count} terms, "
                        f"more than {MAX_APPLY_TERMS}")
    # the imaginary parts are the odd entries of each frequency key
    if any(any(fr[1::2]) for _, fr in f.data):
        raise ConvergenceDomain("input must have real frequencies")
    field = FLOAT if FLOAT in (f.field, lam.field) else EXACT
    c_v = field.coerce(c)
    if field is EXACT:
        unit = math.lcm(f.unit, lam.value.denominator, c_v.denominator)
        poly = f._recast(unit, f.den)

        def inverse(mu):
            return (GaussInt(-mu.imag * unit, -mu.real * unit),
                    mu.real * mu.real + mu.imag * mu.imag)

        lam_v, c_v = GaussInt.scaled(lam.value, unit), GaussInt.scaled(c_v, unit)
        weight_den, scalar = unit, GaussInt
    else:
        poly = f.to_float()

        def inverse(mu):
            return 1 / (1j * mu), 1

        lam_v, weight_den, scalar = complex(lam.value), 1, complex
    terms = [(cf, [scalar(fr[m], fr[m + 1]) for m in range(0, 2 * n, 2)], 1)
             for cf, fr in poly.data]

    result_terms = list(terms)
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            contrib = _subset_integral(terms, subset, lam_v, inverse, n)
            weight = c_v
            for _ in range(size - 1):
                weight = weight * c_v
            result_terms.extend((coeff * weight, freq, den * weight_den ** size)
                                for coeff, freq, den in contrib)
    # bring every term over the common denominator, one factor per distinct d
    dens = {d for _, _, d in result_terms}
    den = math.lcm(*dens)
    factor = {d: den // d for d in dens}
    raw = [(coeff if d == den else coeff * factor[d],
            tuple([x for w in freq for x in (w.real, w.imag)]))
           for coeff, freq, d in result_terms]
    return ExpPoly(n, field, (), poly.unit, poly.den * den)._merged(raw)


def _subset_integral(terms: list, subset: tuple, lam_v, inverse, n: int):
    """All closed-form terms for one coordinate subset.

    ``terms`` holds (coeff, frequency list, denominator) triples and
    ``inverse(mu)`` returns 1/(i mu) as (numerator, denominator).  The
    integration variable xi_m sweeps (x_{i_m}, x_{i_{m+1}}) (the last
    one sweeps to +infinity); each sweep is split at the in-between
    coordinates so a fixed region form of f applies on each piece.
    """
    size = len(subset)
    piece_ranges = []
    for m in range(size):
        lo = subset[m]
        hi = subset[m + 1] if m + 1 < size else n
        piece_ranges.append(range(lo, hi))

    out_terms = []
    for pieces in itertools.product(*piece_ranges):
        # in the sorted argument list xi_m sits at slot pieces[m] (right
        # after x_{pieces[m]}); the kept coordinates fill the other slots
        kept = list(zip((j for j in range(n) if j not in subset),
                        (r for r in range(n) if r not in pieces)))
        for coeff, freq, den in terms:
            base_freq = [freq[0] * 0] * n
            for j, r in kept:
                base_freq[j] = freq[r]
            for idx in subset:
                base_freq[idx] = base_freq[idx] + lam_v
            # integrate each xi over its piece (x_q, x_{q+1}) or (x_q, inf)
            pending = [(coeff, base_freq, den)]
            for q in pieces:
                mu = freq[q] - lam_v     # exponent frequency
                inv, inv_den = inverse(mu)
                new_pending = []
                for cf, bf, d in pending:
                    lower = list(bf)
                    lower[q] = lower[q] + mu
                    new_pending.append((-(cf * inv), lower, d * inv_den))
                    if q + 1 < n:
                        upper = list(bf)
                        upper[q + 1] = upper[q + 1] + mu
                        new_pending.append((cf * inv, upper, d * inv_den))
                    # q + 1 == n means the +infinity endpoint: Im(mu) > 0
                    # kills the boundary term
                pending = new_pending
            out_terms.extend(pending)
    return out_terms


def bethe_eigenvalue(lam: SpectralParameter, rapidities: Sequence, c,
                     field: Field) -> object:
    """prod_j (lam - l_j - ic) / (lam - l_j)."""
    lam_v = field.coerce(lam.value)
    c_v = field.coerce(c)
    out = field.one
    for k in rapidities:
        kv = field.coerce(k)
        out = out * (lam_v - kv - field.i * c_v) / (lam_v - kv)
    return out


def eigenvalue_check(lam: SpectralParameter,
                     w: BetheWavefunction) -> tuple[complex, float]:
    """Measured eigenvalue and residual of the diagonal action.

    In exact mode the residual is the largest coefficient of
    g - (expected eigenvalue) * f, which is exactly zero for Bethe
    states; a pointwise ratio check on a sample grid is returned as the
    float residual either way.
    """
    f = w.canonical
    g = apply_A(lam, f, w.coupling.c)
    expected = bethe_eigenvalue(lam, w.rapidities.values, w.coupling.c,
                                g.field)
    coeff_residual = (g - f.scale(expected)).max_coeff()

    # pointwise ratio on an ordered sample grid
    pts = _ordered_grid(w.n, EIGEN_GRID)
    fv = f.evaluate(pts)
    gv = g.evaluate(pts)
    ratios = gv / fv
    measured = complex(np.mean(ratios))
    float_residual = float(np.max(np.abs(ratios - complex(expected))))
    return measured, max(coeff_residual, 0.0) if g.field is EXACT \
        else float_residual


def _ordered_grid(n: int, count: int) -> np.ndarray:
    """The first 4*count increasing n-tuples of a grid of count points."""
    base = np.linspace(-1.3, 1.7, count)
    return np.array(list(itertools.combinations(base, n))[:4 * count])


# ----------------------------------------------------------------------
# Boundary value problem
# ----------------------------------------------------------------------

def bvp_residual(lam: SpectralParameter, f: ExpPoly,
                 g: ExpPoly, c) -> tuple[ExpPoly, list[ExpPoly]]:
    """Interior and boundary residuals relating f and g = A f.

    Interior: prod_j (lam + i d_j) g - prod_j (lam + i d_j - ic) f must
    be the empty sum.  Boundary: the pair bracket of g must equal that
    of f on every hyperplane x_{j+1} = x_j + 0.
    """
    field = FLOAT if FLOAT in (f.field, g.field, lam.field) else EXACT
    lam_v = field.coerce(lam.value)
    c_v = field.coerce(c)
    n = f.num_vars

    # with z = i w the symbol of lam + i d is lam - w = i (z - i lam), and
    # that of lam + i d - ic is i (z - (i lam + c))
    def shifted_product(z, a):
        out = 1
        for zn in z:
            out = (zn - a) * out
        return out

    i_lam = field.i * lam_v
    pde = (g.weighted(shifted_product, n, i_lam)
           - f.weighted(shifted_product, n, i_lam + c_v)).scale(field.i ** n)
    boundary = [boundary_residual_h2(g, c, j) - boundary_residual_h2(f, c, j)
                for j in range(1, n)]
    return pde, boundary


def pair_bracket_residual(poly: ExpPoly, c) -> float:
    """Largest coefficient of the pair brackets of a sector function."""
    return max((boundary_residual_h2(poly, c, j).max_coeff()
                for j in range(1, poly.num_vars)), default=0.0)


# ----------------------------------------------------------------------
# Numeric cross-check (direct quadrature of the defining integrals)
# ----------------------------------------------------------------------

# Every interval of the oracle is cut into equal panels, each at most
# PANEL_PHASE radians of the fastest exponent |lambda| + max|k| long, and
# each panel carries the 48-node rule of ``charges.gauss_rule``.
PANEL_PHASE = 24.0


def _panels(a: float, b: float, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule on [a, b]
    for an integrand of exponent modulus at most omega."""
    nodes, weights = gauss_rule()
    count = max(1, math.ceil(omega * (b - a) / PANEL_PHASE))
    width = (b - a) / count
    starts = a + width * np.arange(count)
    return ((starts[:, None] + width * nodes).ravel(),
            np.tile(width * weights, count))


def apply_A_numeric_point(lam: complex, w: BetheWavefunction,
                          point: Sequence[float]) -> complex:
    """Direct quadrature of the defining integrals at one ordered point.

    Supported for N <= 2.  Each integral runs over fixed composite
    Gauss-Legendre panels (``_panels``), split at the kink x_2; the
    improper integrals are cut at x + 45/|Im lambda|, where the kernel
    has decayed by e^-45.  It shares only ``evaluate`` with ``apply_A``.
    """
    lam = complex(lam)
    if lam.imag >= 0:
        raise ConvergenceDomain("need Im(lambda) < 0")
    x = [float(v) for v in point]
    n = len(x)
    if n > 2:
        raise ValueError("numeric cross-check supports N <= 2")
    c = float(w.coupling.c)
    cut = 45.0 / -lam.imag
    omega = abs(lam) + w.canonical.max_freq()

    def kernel(i, rule):
        """Rule weights times exp(i lam (x_i - xi)) at the rule's nodes."""
        xi, wt = rule
        return wt * np.exp(1j * lam * (x[i] - xi))

    def sweep(i, a, b):
        """c int_a^b exp(i lam (x_i - xi)) f(x with x_i -> xi) dxi."""
        rule = _panels(a, b, omega)
        pts = np.tile(x, (rule[0].size, 1))
        pts[:, i] = rule[0]
        return c * kernel(i, rule) @ w.evaluate_many(pts)

    total = w.evaluate(x)
    if n == 1:
        return complex(total + sweep(0, x[0], x[0] + cut))
    # subset {x_1}: xi sweeps past x_2, where f has a kink
    total += sweep(0, x[0], x[1]) + sweep(0, x[1], x[1] + cut)
    # subset {x_2}
    total += sweep(1, x[1], x[1] + cut)
    # subset {x_1, x_2}: tensor rule on xi_1 in (x_1, x_2), xi_2 in (x_2, inf)
    inner, outer = _panels(x[0], x[1], omega), _panels(x[1], x[1] + cut, omega)
    grid = np.stack(np.meshgrid(inner[0], outer[0], indexing="ij"), axis=-1)
    f_grid = w.evaluate_many(grid.reshape(-1, 2)).reshape(grid.shape[:2])
    total += c * c * kernel(0, inner) @ f_grid @ kernel(1, outer)
    return complex(total)


# ----------------------------------------------------------------------
# Inverse-lambda expansion and its non-uniformity
# ----------------------------------------------------------------------

def expansion_partial_sum(f: ExpPoly, c: float, lam: complex,
                          x: float, y: float, order: int) -> complex:
    """Two-particle expansion through the requested order in 1/lambda.

    Orders carried (m = power of 1/lambda):
      m=0: f
      m=1: c * 2 f / (i lam)
      m=2: c (f_x + f_y)/(i lam)^2 + c^2 [f - e^{i lam (x-y)} f(y,y)]/(i lam)^2
      m=3: c (f_xx + f_yy)/(i lam)^3
           + c^2 [(f_x+f_y) - e^{i lam (x-y)} (f_x+f_y)(y,y)]/(i lam)^3

    The exponential boundary terms are kept: at separations y - x of
    order 1/|lambda| they are as large as the rational terms of the same
    order, which is exactly the non-uniformity being demonstrated.
    """
    if f.num_vars != 2:
        raise ValueError("expansion defined on the two-particle sector")
    if not 0 <= order <= 3:
        raise ValueError("orders 0..3 are implemented")
    poly = f.to_float()
    il = 1j * lam

    def d(mx, my, px, py):
        return complex(poly.differentiate((mx, my)).evaluate(np.array([px, py])))

    fv = d(0, 0, x, y)
    total = fv
    if order >= 1:
        total += c * 2.0 * fv / il
    if order >= 2:
        grad = d(1, 0, x, y) + d(0, 1, x, y)
        bnd = np.exp(1j * lam * (x - y)) * d(0, 0, y, y)
        total += c * grad / il ** 2 + c * c * (fv - bnd) / il ** 2
    if order >= 3:
        lap = d(2, 0, x, y) + d(0, 2, x, y)
        grad = d(1, 0, x, y) + d(0, 1, x, y)
        bnd_grad = np.exp(1j * lam * (x - y)) * (d(1, 0, y, y) + d(0, 1, y, y))
        total += c * lap / il ** 3 + c * c * (grad - bnd_grad) / il ** 3
    return complex(total)


def asymptotic_expand(f: ExpPoly, c: float,
                      t_grid: Sequence[float], x: float, y: float) -> dict:
    """Truncation error of the expansion against the exact action.

    For fixed x < y the boundary terms are exponentially small, so the
    error after truncating at order m decays like t^-(m+1) along
    lam = -i t; the fitted exponents are returned per order.
    """
    if not x < y:
        raise ValueError("need an ordered interior point x < y")
    rows = []
    for t in t_grid:
        lam = SpectralParameter(complex(0.0, -float(t)))
        g_val = complex(apply_A(lam, f, c).evaluate(np.array([x, y])))
        errs = {}
        for m in range(4):
            approx = expansion_partial_sum(f, c, complex(lam.value), x, y, m)
            errs[m] = abs(g_val - approx)
        rows.append({"t": float(t), "g": g_val, "errors": errs})
    fits = {}
    for m in range(4):
        xs = np.log([r["t"] for r in rows])
        ys = np.log([max(r["errors"][m], 1e-300) for r in rows])
        fits[m] = float(-np.polyfit(xs, ys, 1)[0])
    return {"rows": rows, "fitted_decay_order": fits}


def nonuniformity_scan(f: ExpPoly, c: float, t_grid: Sequence[float]) -> dict:
    """Size of the dropped boundary term at separation s = 1/t.

    With lam = -i t, y = SCAN_Y and x = y - 1/t the boundary factor is
    exactly e^{-1}, so the dropped term has magnitude e^{-1} c^2 t^{-2}
    |f(y,y)|, the same order as the retained 1/lambda^2 term; at
    separation 10/t it is suppressed by e^{-10}; integrated over
    separations in (0, 1] it contributes at order t^{-3}, one power
    beyond the pointwise order, which is how a boundary-supported
    correction enters the expansion one order down.
    """
    if f.num_vars != 2:
        raise ValueError("scan defined on the two-particle sector")
    poly = f.to_float()
    y = SCAN_Y
    rows = []
    for t in t_grid:
        t = float(t)
        lam = complex(0.0, -t)
        il = 1j * lam
        f_diag = complex(poly.evaluate(np.array([y, y])))
        s = 1.0 / t
        boundary = np.exp(1j * lam * (-s)) * f_diag * c * c / il ** 2
        retained = complex(poly.evaluate(np.array([y - s, y]))) * c * c / il ** 2
        suppressed = abs(np.exp(1j * lam * (-10.0 / t)) * f_diag * c * c / il ** 2)
        integrated = abs(f_diag) * c * c / t ** 2 * (1.0 - math.exp(-t)) / t
        rows.append({
            "t": t,
            "boundary_term": abs(boundary),
            "floor": math.exp(-1.0) * c * c * abs(f_diag) / t ** 2,
            "retained_term": abs(retained),
            "suppressed_at_10_over_t": suppressed,
            "integrated_over_unit_separation": integrated,
        })
    return {"rows": rows}
