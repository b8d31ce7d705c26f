"""Conserved charges acting on delta-Bose-gas wavefunctions.

The commuting family is organized in two ladders:

* power-sum charges H1..H4 with eigenvalues i*p1, p2, i^3*p3, p4 of the
  rapidities (H2 carries an overall minus on its Laplacian free part);
* elementary-symmetric charges J2..J4 with eigenvalues -e2, i^3*e3, e4,
  which are the irreducible building blocks of H3 and H4:

      H3 = H1^3 - 3 H1 J2 + 3 J3
      H4 = H1^4 + 2 J2^2 - 4 H1^2 J2 + 4 H1 J3 - 4 J4

Away from coincident coordinates every charge acts through its free
differential part only; the delta-supported layers are equivalent to
boundary conditions on the hyperplanes x_j = x_{j+1}.  All of those are
verified here as exact cancellations of plane-wave sums:

  pair bracket      [c f + (d_j - d_{j+1}) f]              = 0,
  triple bracket    (sum_{l != j,j+1} d_l) [pair bracket]  = 0,
  quadruple bracket sum_{j>k>=3} (d_j d_k + c delta_jk) [pair bracket] = 0,

each evaluated in the one-sided limit x_{j+1} -> x_j from the ordered
region.  The ill-defined "naive" fourth charge differs from H4 by a
squared-delta term.  ``g4_defect_scan`` shows its 1/eps divergence with
Gaussian-regularized deltas, in the relative coordinates of the ordered
region: closed forms in the gaps the deltas leave free and one fixed
Gauss rule in each pinned pair distance.  Box norms and pair-contact
elements are closed-form ordered-box integrals (``integrate_ordered_box``).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .planewaves import BetheWavefunction, ExpPoly, RapiditySet


def __getattr__(name):
    # last program-side tie to perfbench/tracer.py, which patches
    # charges.integrate.quad; deleted by ROADMAP item 2
    if name == "integrate":
        from scipy import integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ----------------------------------------------------------------------
# Charge registry and eigenvalues
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FreeChargeSpec:
    """Free differential part of a charge: sign * (symmetric polynomial
    of the per-variable derivatives)."""

    kind: str          # "power" or "elementary"
    degree: int
    sign: int

    def min_particles(self) -> int:
        return self.degree if self.kind == "elementary" else 1


CHARGES = {
    "H1": FreeChargeSpec("power", 1, +1),
    "H2": FreeChargeSpec("power", 2, -1),
    "J2": FreeChargeSpec("elementary", 2, +1),
    "J3": FreeChargeSpec("elementary", 3, +1),
    "J4": FreeChargeSpec("elementary", 4, +1),
    "H3": FreeChargeSpec("power", 3, +1),
    "H4": FreeChargeSpec("power", 4, +1),
}


def power_sum(values: Sequence, m: int):
    if not values:
        raise DomainError("power sum of an empty set of values")
    total = values[0] * 0
    for v in values:
        total = total + v ** m
    return total


def elementary_symmetric(values: Sequence, m: int):
    if not values:
        raise DomainError("elementary symmetric sum of an empty set of values")
    one = values[0] * 0 + 1
    # e_k via the expansion of prod (1 + v t)
    coeffs = [one] + [values[0] * 0] * m
    for v in values:
        for k in range(min(m, len(values)), 0, -1):
            coeffs[k] = coeffs[k] + v * coeffs[k - 1]
    return coeffs[m]


def charge_eigenvalue(name: str, rapidities: RapiditySet):
    """Exact eigenvalue of the named charge on the Bethe state with the
    given rapidities: the registered symmetric polynomial evaluated at
    i * rapidities, times the registered sign.  An ExactComplex under
    EXACT, a complex under FLOAT."""
    spec = CHARGES[name]
    vals = [rapidities.field.i * v for v in rapidities.values]
    if spec.kind == "power":
        value = power_sum(vals, spec.degree)
    else:
        value = elementary_symmetric(vals, spec.degree)
    return value * spec.sign


# ----------------------------------------------------------------------
# Interior (free-part) action
# ----------------------------------------------------------------------

def apply_free_part(spec: FreeChargeSpec, w: BetheWavefunction) -> ExpPoly:
    """Apply the free differential part on the ordered region.

    A plane wave with frequency vector omega is an eigenvector of every
    constant-coefficient operator; the free part multiplies its
    coefficient by sign * sym(i*omega).
    """
    sym = power_sum if spec.kind == "power" else elementary_symmetric
    return w.canonical.weighted(
        lambda z: sym(z, spec.degree) * spec.sign, spec.degree)


def interior_eigen_residual(name: str, w: BetheWavefunction) -> ExpPoly:
    """Free part applied minus eigenvalue times the wavefunction; must be
    the empty sum on the ordered region."""
    spec = CHARGES[name]
    applied = apply_free_part(spec, w)
    return applied - w.canonical.scale(charge_eigenvalue(name, w.rapidities))


# ----------------------------------------------------------------------
# Boundary conditions
# ----------------------------------------------------------------------

def pair_bracket(poly: ExpPoly, coupling, j: int) -> ExpPoly:
    """c f + (d_j - d_{j+1}) f  as a plane-wave sum (not yet restricted)."""
    return poly.weighted(lambda z, c: c + (z[j - 1] - z[j]), 1, coupling)


def boundary_residual_h2(poly: ExpPoly, coupling, j: int) -> ExpPoly:
    """Pair bracket restricted to x_{j+1} = x_j + 0 for an arbitrary
    plane-wave sum; empty exactly for functions in the interacting
    domain, nonempty for generic controls."""
    return pair_bracket(poly, coupling, j).restrict_to_boundary(j)


def boundary_residual_j3(poly: ExpPoly, coupling, j: int) -> ExpPoly:
    """(sum_{l != j, j+1} d_l) applied to the pair bracket, restricted to
    x_{j+1} = x_j + 0.  The extra derivatives are tangential to the
    boundary, so vanishing of the pair bracket forces this to vanish."""
    n = poly.num_vars
    if n < 3:
        raise ValueError("triple bracket needs at least three particles")
    bracket = pair_bracket(poly, coupling, j)

    def weight(z):
        total = z[0] * 0
        for l in range(n):
            if l not in (j - 1, j):
                total = total + z[l]
        return total

    return bracket.weighted(weight, 1).restrict_to_boundary(j)


def _tangential_e2(z):
    """e_2(z_3, ..., z_n); at n = 4 the single product z_4 z_3."""
    total, run = z[3] * z[2], z[3] + z[2]
    for x in z[4:]:
        total, run = total + run * x, run + x
    return total


def boundary_residual_j4(poly: ExpPoly, coupling) -> list[ExpPoly]:
    """Quadruple-layer boundary condition at x_2 = x_1 + 0.

    Returns two residual components, both required empty:
      [0] the tangential-derivative part sum_{j>k>=3} d_j d_k [bracket],
          restricted to x_2 = x_1;
      [1] the delta layer, evaluated by a second restriction x_j = x_k of
          the already-restricted bracket, summed over j > k >= 3.
    """
    n = poly.num_vars
    if n < 4:
        raise ValueError("quadruple bracket needs at least four particles")
    bracket = pair_bracket(poly, coupling, 1)

    # sum_{j>k>=3} d_j d_k is one operator, weight e_2(z_3, ..., z_n)
    deriv_total = bracket.weighted(_tangential_e2, 2).restrict_to_boundary(1)
    restricted = bracket.restrict_to_boundary(1)
    delta_total = ExpPoly.zero(n - 2, poly.field)
    for k_lo, j_hi in itertools.combinations(range(3, n + 1), 2):
        # after restricting x_2 := x_1, old variable v >= 3 sits at v - 1
        delta_total = delta_total + restricted.substitute_equal(
            j_hi - 1, k_lo - 1).scale(coupling)
    return [deriv_total, delta_total]


def all_boundary_residuals(w: BetheWavefunction) -> dict:
    """Every applicable boundary residual for the state; keys name the
    bracket and the hyperplane index."""
    out = {}
    n, poly, c = w.n, w.canonical, w.coupling.c
    for j in range(1, n):
        out[f"pair[j={j}]"] = boundary_residual_h2(poly, c, j)
    if n >= 3:
        for j in range(1, n):
            out[f"triple[j={j}]"] = boundary_residual_j3(poly, c, j)
    if n >= 4:
        for idx, res in enumerate(boundary_residual_j4(poly, c)):
            out[f"quadruple[part={idx}]"] = res
    return out


# ----------------------------------------------------------------------
# Composition identities at eigenvalue level
# ----------------------------------------------------------------------

def composition_identity_check(rapidities: RapiditySet) -> dict:
    """Verify the ladder compositions and the underlying Newton
    identities exactly at eigenvalue level."""
    n = len(rapidities)
    if n == 0:
        raise DomainError("composition identities need at least one particle")
    ev = {name: charge_eigenvalue(name, rapidities) for name in CHARGES}

    h3_combo = ev["H1"] ** 3 - 3 * ev["H1"] * ev["J2"] + 3 * ev["J3"]
    h4_combo = (ev["H1"] ** 4 + 2 * ev["J2"] ** 2 - 4 * ev["H1"] ** 2 * ev["J2"]
                + 4 * ev["H1"] * ev["J3"] - 4 * ev["J4"])

    vals = list(rapidities.values)
    p = {m: power_sum(vals, m) for m in (1, 2, 3, 4)}
    e = {m: elementary_symmetric(vals, m) for m in (1, 2, 3, 4)}
    newton3 = p[3] == e[1] ** 3 - 3 * e[1] * e[2] + 3 * e[3]
    newton4 = p[4] == (e[1] ** 4 - 4 * e[1] ** 2 * e[2] + 2 * e[2] ** 2
                       + 4 * e[1] * e[3] - 4 * e[4])

    report = {
        "n": n,
        "h3_composition": ev["H3"] == h3_combo,
        "h4_composition": ev["H4"] == h4_combo,
        "newton_p3": bool(newton3),
        "newton_p4": bool(newton4),
    }
    report["ok"] = all(v for k, v in report.items() if k != "n")
    return report


# ----------------------------------------------------------------------
# Regularized squared-delta defect (the ill-defined fourth charge)
# ----------------------------------------------------------------------

# Each pinned pair distance runs over one Gauss-Legendre rule of
# DEFECT_ORDER nodes on [0, min(L, DEFECT_REACH * eps)]; past the reach
# delta_eps has fallen below exp(-DEFECT_REACH**2) of its peak.  The rule
# on [0, 1] is built on first use: importing charges solves no eigenproblem.
# It is the program's one Gauss rule: the numeric oracle of
# integral_operator tiles it into panels.
DEFECT_ORDER = 48
DEFECT_REACH = 7.0


@functools.cache
def gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    x, wt = np.polynomial.legendre.leggauss(DEFECT_ORDER)
    return 0.5 * (x + 1.0), 0.5 * wt


def _phi(k: int, z) -> np.ndarray:
    """phi_k(z) = sum_{m>=0} z^m / (m+k)!: (e^z - 1)/z for k = 1 and
    (e^z - 1 - z)/z^2 for k = 2, so that int_0^M exp(z t/M) dt = M phi_1(z)
    and int_0^M (M - t) exp(z t/M) dt = M^2 phi_2(z).  Summed as a Taylor
    series where |z| < 1: z = 0 and tiny z lose nothing to cancellation."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1.0
    zs, zb = np.where(small, z, 0.0), np.where(small, 1.0, z)
    # 20 terms: the remainder is below 1/20! where |z| < 1
    series = sum(zs ** m / math.factorial(m + k) for m in range(20))
    return np.where(small, series, (np.expm1(zb) - (k - 1) * zb) / zb ** k)


def _delta_expectations(w: BetheWavefunction, L: float,
                        eps: float) -> tuple[float, float]:
    """(<delta_eps(x_1-x_2)^2>, <delta_eps(x_1-x_2) delta_eps(x_2-x_3)>)
    over the box [0, L]^N, unnormalized; the second is 0 for N = 2.

    delta_eps(u) = exp(-u^2/eps^2) / (eps sqrt(pi)); its square integrates
    to 1/(eps sqrt(2 pi)), which drives the 1/eps divergence.  Terms a, b
    of chi give conj(c_a) c_b exp(i Omega . y), Omega = w_b - conj(w_a).
    Only a zero total frequency sum(Omega) lets the rigid shift y_1 drop
    out; then in the gaps u = y_2 - y_1, v = y_3 - y_2 of the ordered
    region |chi|^2 = sum C exp(alpha u + beta v), with alpha = i (Omega_2 +
    Omega_3) and beta = i Omega_3, and the shift gives the measure
    L - u - v.  By exchange symmetry the two expectations are

        2 int (L-u-v) |chi|^2 [delta^2(u) + delta^2(v) + delta^2(u+v)],
        2 int (L-u-v) |chi|^2 [delta(u) delta(v) + delta(u) delta(u+v)
                               + delta(v) delta(u+v)].

    A gap left free by the deltas is integrated in closed form (``_phi``);
    each pinned pair distance runs over the fixed rule on [0, reach].  For
    N = 3 the product delta(u) delta(v) pins both gaps, and the rule stays
    clear of the kink u + v = L of the measure only while 2 reach <= L;
    wider Gaussians are rejected.
    """
    if not eps > 0:
        raise DomainError(f"Gaussian width must be positive, got {eps}")
    freqs, coeffs = w.canonical.complex_arrays
    omega = (freqs[None, :, :] - freqs.conj()[:, None, :]).reshape(-1, w.n)
    weight = (coeffs.conj()[:, None] * coeffs[None, :]).ravel()
    drift = np.max(np.abs(omega.sum(axis=1)))
    if drift > 1e-12 * w.n * (1.0 + np.max(np.abs(freqs))):
        raise DomainError(f"|chi|^2 has terms of total frequency up to {drift:.3g}; "
                          "it is not invariant under a rigid shift")
    # gap exponents a_j = i (Omega_{j+1} + ... + Omega_N): alpha, then beta
    gaps = 1j * np.cumsum(omega[:, :0:-1], axis=1)[:, ::-1]
    nodes, weights = gauss_rule()
    reach = min(L, DEFECT_REACH * eps)
    s = reach * nodes
    delta = np.exp(-(s / eps) ** 2) / (eps * math.sqrt(math.pi))
    d1 = reach * weights * delta            # rule weight times delta_eps
    d2 = d1 * delta                         # rule weight times delta_eps^2
    m = L - s
    alpha = gaps[:, :1]
    ea = np.exp(alpha * s)
    if w.n == 2:
        return 2.0 * (weight @ (ea * m) @ d2).real, 0.0
    if 2.0 * reach > L:
        raise DomainError(f"width {eps} too wide for box {L}: the N = 3 "
                          f"rule needs 2 * {DEFECT_REACH} * eps <= L")
    beta = gaps[:, 1:]
    eb = np.exp(beta * s)
    # pinned u (v free), pinned v (u free), pinned u + v (split free)
    pair = ((ea * _phi(2, beta * m) + eb * _phi(2, alpha * m)) * m * m
            + eb * s * _phi(1, (alpha - beta) * s) * m) @ d2
    # delta(u) delta(v) separates: sum_ij d1_i d1_j (L - s_i - s_j) ea_i eb_j
    pa, pb, qa, qb = ea @ d1, eb @ d1, ea @ (s * d1), eb @ (s * d1)
    cross = L * pa * pb - qa * pb - pa * qb
    # delta(u) delta(u+v): pin u + v = s and u = s t, t on the rule over
    # [0, 1]; the exponent is beta s + (alpha - beta) s t.  Then u <-> v.
    st = np.multiply.outer(s, nodes)
    dt = weights * np.exp(-(st / eps) ** 2) / (eps * math.sqrt(math.pi))
    for a, b in ((alpha, beta), (beta, alpha)):
        inner = np.einsum("tij,ij->ti", np.exp((a - b)[:, :, None] * st), dt)
        cross = cross + (inner * np.exp(b * s) * s * m) @ d1
    return (2.0 * (weight @ pair).real, 2.0 * (weight @ cross).real)


def g4_defect_scan(w: BetheWavefunction, epsilons: Sequence[float],
                   box_length: float) -> list[tuple[float, float]]:
    """|<chi| (naive fourth charge - H4) |chi>| with every delta replaced
    by a Gaussian of width eps, for each eps in the scan.

    For N=2 the difference operator is -2 c^2 delta^2(x_1-x_2); for N=3
    it gains +6 c^2 delta(x_1-x_2) delta(x_2-x_3), whose regularized
    expectation stays finite while the squared-delta part diverges
    like 1/eps.  Both come from ``_delta_expectations`` in relative
    coordinates.  Raises ``ValueError`` for N outside {2, 3} and
    ``DomainError`` for a width the N = 3 rule cannot take or a state
    whose |chi|^2 is not invariant under rigid shifts.
    """
    if w.n not in (2, 3):
        raise ValueError("defect scan supports N in {2, 3}")
    c = float(w.coupling.c)
    out = []
    for eps in epsilons:
        pair, cross = _delta_expectations(w, box_length, float(eps))
        # C(N, 2) equal pair terms against three equal cross terms
        defect = abs(2.0 * c * c * (w.n * (w.n - 1) // 2 * pair - 3.0 * cross))
        out.append((float(eps), float(defect)))
    return out


def fit_loglog_slope(scan: Sequence[tuple[float, float]]) -> float:
    eps = np.log([p[0] for p in scan])
    val = np.log([p[1] for p in scan])
    return float(np.polyfit(eps, val, 1)[0])


def one_over_eps_remainders(scan: Sequence[tuple[float, float]],
                            n_fit: int = 4) -> tuple[float, list[float]]:
    """Fit A/eps on the smallest widths and return (A, remainders)."""
    pts = sorted(scan, key=lambda p: p[0])
    fit_pts = pts[:n_fit]
    num = sum(v / e for e, v in fit_pts)
    den = sum(1.0 / (e * e) for e, _ in fit_pts)
    A = num / den
    remainders = [v - A / e for e, v in pts]
    return A, remainders


# ----------------------------------------------------------------------
# Pair-delta overlaps (sector action of the pair-contact operator)
# ----------------------------------------------------------------------

def integrate_ordered_box(poly: ExpPoly, L: float) -> complex:
    """Integral of a plane-wave sum over 0 < x_1 < ... < x_n < L, in
    closed form for any n.

    In the gaps u_0 = L - x_n, u_1 = x_n - x_{n-1}, ..., u_n = x_1 the
    term c exp(i w.x) is c exp(sum_j B_j u_j) on the simplex sum u = L,
    with B_0 = 0 and B_j = i (w_n + ... + w_{n-j+1}).  That integral is
    the divided difference of exp(L z) at B_0..B_n (Hermite-Genocchi),
    which is entry (0, n) of expm(L Z) for Z upper bidiagonal with
    diagonal B and unit superdiagonal (Opitz; McCurdy, Ng and Parlett,
    Math. Comp. 43 (1984)).  One batched expm covers every term, and zero
    or coincident B need no special case.
    """
    if not poly.data:
        return 0j
    freqs, coeffs = poly.complex_arrays
    n = poly.num_vars
    diag = np.arange(n + 1)
    Z = np.zeros((len(coeffs), n + 1, n + 1), dtype=complex)
    Z[:, diag[1:], diag[1:]] = 1j * L * np.cumsum(freqs[:, ::-1], axis=1)
    Z[:, diag[:-1], diag[1:]] = L
    return complex(coeffs @ _expm(Z)[:, 0, n])


def _expm(A: np.ndarray) -> np.ndarray:
    """exp of a stack of matrices: degree-18 Taylor after scaling each to
    1-norm <= 1/2, then squaring.  No triangular fix-up, so it stays
    accurate on nearly coincident diagonal entries."""
    norms = np.abs(A).sum(axis=-2).max(axis=-1)
    squarings = np.ceil(np.log2(np.maximum(2.0 * norms, 1.0))).astype(int)
    X = A / np.ldexp(1.0, squarings)[:, None, None]
    eye = np.eye(A.shape[-1])
    P = eye + X / 18
    for k in range(17, 0, -1):
        P = eye + X @ P / k
    for k in range(squarings.max(initial=0)):
        P = np.where((k < squarings)[:, None, None], P @ P, P)
    return P


def pair_delta_overlap(f: BetheWavefunction, g: BetheWavefunction,
                       L: float) -> complex:
    """<f| sum_{j<k} delta(x_j - x_k) |g> over the box [0, L]^N.

    By exchange symmetry every pair gives the delta(x_1 - x_2) term; with
    the remaining N - 1 coordinates ordered, the coincident pair sits at
    boundary p = 1..N-1 of the ordered region in (N - 2)! of the
    orderings, where both states restrict to x_{p+1} = x_p exactly.  The
    restricted products are integrated in closed form.  Nonzero
    off-diagonal elements between distinct Bethe states are what expels
    the naively ordered quartic expansion coefficient from the commuting
    family.
    """
    if f.n != g.n:
        raise ValueError("states must live in the same particle sector")
    total = 0j
    for p in range(1, f.n):
        df = f.canonical.restrict_to_boundary(p).to_float()
        dg = g.canonical.restrict_to_boundary(p).to_float()
        total += integrate_ordered_box(df.conj().mul(dg), L)
    # C(N, 2) pairs times (N - 2)! orderings; total is 0 for N < 2
    return math.factorial(f.n) // 2 * total


def norm_sq(f: BetheWavefunction, L: float) -> float:
    """Squared box norm of the (unnormalized) wavefunction: N! times the
    closed-form integral of |chi|^2 over the ordered region."""
    chi = f.canonical.to_float()
    return math.factorial(f.n) * integrate_ordered_box(chi.conj().mul(chi), L).real


def normalized_pair_delta_overlap(f: BetheWavefunction, g: BetheWavefunction,
                                  L: float) -> complex:
    return pair_delta_overlap(f, g, L) / math.sqrt(norm_sq(f, L) * norm_sq(g, L))
