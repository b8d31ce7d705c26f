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
region.  The tangential derivatives d_l (l != j, j+1) do not touch the
two coordinates the restriction merges, so they commute with it: the
triple and quadruple layers act on the restricted pair bracket, one
restriction per hyperplane.  Given a sequence of states of one N, the
residuals run on one tagged sum (``planewaves``), the couplings and
eigenvalues columns gathered by tag, and come back one per state, each
that state's own.  The ill-defined "naive" fourth charge
differs from H4 by a squared-delta term.  ``g4_defect_scan`` shows its
1/eps divergence with Gaussian-regularized deltas, in the relative
coordinates of the ordered region: closed forms in the gaps the deltas
leave free and one fixed Gauss rule in each pinned pair distance.  Box
norms and pair-contact elements come from one exponential on pairs of
rapidity subsets.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError
from .exact import EXACT, ExactComplex
from .planewaves import BetheWavefunction, ExpPoly, RapiditySet


def __getattr__(name):
    # last program-side tie to perfbench/tracer.py, which patches
    # charges.integrate.quad; it goes when the tracer stops patching by name
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
    return _elementary_sums(values, m)[m]


def _elementary_sums(values: Sequence, m: int) -> list:
    """e_0, ..., e_m of the values; e_k for k < m is the float
    ``elementary_symmetric(values, k)`` gives."""
    if not values:
        raise DomainError("elementary symmetric sum of an empty set of values")
    one = values[0] * 0 + 1
    # e_k via the expansion of prod (1 + v t)
    coeffs = [one] + [values[0] * 0] * m
    for v in values:
        for k in range(min(m, len(values)), 0, -1):
            coeffs[k] = coeffs[k] + v * coeffs[k - 1]
    return coeffs


def _numerators(rapidities: RapiditySet) -> tuple[list[int], int]:
    """Int numerators a_k over D, the lcm of the denominators of the
    rational rapidities v_k = a_k / D."""
    den = math.lcm(*(v.denominator for v in rapidities.values))
    return [v.numerator * (den // v.denominator)
            for v in rapidities.values], den


# i^m as (re, im), indexed by m mod 4
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))
# the degrees of the symmetric sums kept per state (``_state_sums``)
_SUM_DEGREE = max(spec.degree for spec in CHARGES.values())


def _state_sums(rapidities: RapiditySet) -> tuple[dict, int | None]:
    """(sums, D): sums[kind][m], m = 0.._SUM_DEGREE, the power ("power")
    and elementary ("elementary") symmetric sums of the state's scalars,
    which are the int numerators a_k of the rapidities v_k = a_k / D under
    EXACT and i * v_k under FLOAT (D is None).  A rapidity set is
    immutable, so its field, numerators and sums are computed on the
    first call and kept on it: the identities checks read every charge of
    each state."""
    kept = vars(rapidities).get("_charge_sums")
    if kept is None:
        field = rapidities.field
        if field is EXACT:
            scalars, den = _numerators(rapidities)
        else:
            scalars, den = [field.i * v for v in rapidities.values], None
        kept = ({"power": [power_sum(scalars, m)
                           for m in range(_SUM_DEGREE + 1)],
                 "elementary": _elementary_sums(scalars, _SUM_DEGREE)}, den)
        vars(rapidities)["_charge_sums"] = kept
    return kept


def _eigen_numerator(name: str, sums: dict) -> tuple[int, int]:
    """The exact eigenvalue of the named charge as a Gaussian integer
    (re, im) over D^m: the registered sign times sym(a_k), times i^m."""
    spec = CHARGES[name]
    s = spec.sign * sums[spec.kind][spec.degree]
    re, im = _I_POWERS[spec.degree % 4]
    return re * s, im * s


def charge_eigenvalue(name: str, rapidities: RapiditySet):
    """Exact eigenvalue of the named charge on the Bethe state with the
    given rapidities: the registered symmetric polynomial evaluated at
    i * rapidities, times the registered sign.  An ExactComplex under
    EXACT, a complex under FLOAT.

    The polynomial is homogeneous of degree m, so under EXACT it is one
    sum of ints: sym(a_k) over D^m for numerators a_k over the common
    denominator D, times i^m, reduced once.  The sums are the state's
    (``_state_sums``), computed once for all its charges."""
    spec = CHARGES[name]
    sums, den = _state_sums(rapidities)
    if den is None:
        return sums[spec.kind][spec.degree] * spec.sign
    return ExactComplex.over(*_eigen_numerator(name, sums), den ** spec.degree)


# ----------------------------------------------------------------------
# Interior (free-part) action
# ----------------------------------------------------------------------

def apply_free_part(spec: FreeChargeSpec, w) -> ExpPoly:
    """Apply the free differential part on the ordered region, to a
    state's canonical sum or to a sum.

    A plane wave with frequency vector omega is an eigenvector of every
    constant-coefficient operator; the free part multiplies its
    coefficient by sign * sym(i*omega).
    """
    sym = power_sum if spec.kind == "power" else elementary_symmetric
    return (w.canonical if isinstance(w, BetheWavefunction) else w).weighted(
        lambda z: sym(z, spec.degree) * spec.sign, spec.degree)


def _batch(w) -> tuple:
    """The states (one state is the batch of one) and their tagged sum."""
    states = (w,) if isinstance(w, BetheWavefunction) else tuple(w)
    return states, ExpPoly._tagged(tuple(s.canonical for s in states))


def _per_state(w, results: list):
    """A list for a sequence of states, the one item for one state."""
    return results[0] if isinstance(w, BetheWavefunction) else results


def interior_eigen_residual(name: str, w) -> ExpPoly | list:
    """Free part applied minus eigenvalue times the wavefunction; must be
    the empty sum on the ordered region; a list of them for a sequence
    of states of one N."""
    spec, (states, batch) = CHARGES[name], _batch(w)
    residual = apply_free_part(spec, batch) - batch.scale(_per_state(
        w, [charge_eigenvalue(name, s.rapidities) for s in states]))
    return _per_state(w, residual._untagged(len(states)))


# ----------------------------------------------------------------------
# Boundary conditions
# ----------------------------------------------------------------------

def pair_bracket(poly: ExpPoly, coupling, j: int) -> ExpPoly:
    """c f + (d_j - d_{j+1}) f  as a plane-wave sum (not yet restricted);
    for a tagged batch the coupling may be a list, one per state."""
    if not (1 <= j < poly.num_vars):
        raise ValueError("boundary index out of range")
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
    if poly.num_vars < 3:
        raise ValueError("triple bracket needs at least three particles")
    return _triple(boundary_residual_h2(poly, coupling, j), j)


def _triple(restricted: ExpPoly, j: int) -> ExpPoly:
    """``boundary_residual_j3`` from the pair bracket restricted at j:
    every variable but the merged one, x_j at z[j - 1], is tangential."""
    return restricted.weighted(lambda z: sum(
        (z[l] for l in range(len(z)) if l != j - 1), z[0] * 0), 1)


def _quadruple(restricted: ExpPoly, coupling) -> list[ExpPoly]:
    """Quadruple-layer boundary condition at x_2 = x_1 + 0, from the pair
    bracket restricted there; both residual components must be empty:
      [0] the tangential-derivative part sum_{j>k>=3} d_j d_k [bracket];
      [1] the delta layer, a second restriction x_j = x_k of the
          restricted bracket, summed over j > k >= 3.
    After x_2 := x_1 the old variable v >= 3 sits at v - 1."""
    n = restricted.num_vars + 1
    # sum_{j>k>=3} d_j d_k is one operator, weight e_2 of old z_3, ..., z_n
    deriv_total = restricted.weighted(
        lambda z: elementary_symmetric(z[1:], 2), 2)
    # the sum starts at its first pair: adding it to the empty sum would
    # merge a sum that is merged already
    delta_total = functools.reduce(ExpPoly.__add__, (
        restricted.substitute_equal(j_hi - 1, k_lo - 1).scale(coupling)
        for k_lo, j_hi in itertools.combinations(range(3, n + 1), 2)))
    return [deriv_total, delta_total]


def all_boundary_residuals(w) -> dict | list:
    """Every applicable boundary residual for the state; keys name the
    bracket and the hyperplane index.  Each pair bracket is built and
    restricted once, and the triple and quadruple residuals at its
    hyperplane derive from the restriction.  A list of such dicts for a
    sequence of states of one N."""
    states, poly = _batch(w)
    n, c = states[0].n, _per_state(w, [s.coupling.c for s in states])
    out = {f"pair[j={j}]": boundary_residual_h2(poly, c, j)
           for j in range(1, n)}
    if n >= 3:
        for j in range(1, n):
            out[f"triple[j={j}]"] = _triple(out[f"pair[j={j}]"], j)
    if n >= 4:
        for idx, res in enumerate(_quadruple(out["pair[j=1]"], c)):
            out[f"quadruple[part={idx}]"] = res
    split = [res._untagged(len(states)) for res in out.values()]
    return _per_state(w, [{key: res[s] for key, res in zip(out, split)}
                          for s in range(len(states))])


# ----------------------------------------------------------------------
# Composition identities at eigenvalue level
# ----------------------------------------------------------------------

# H3 and H4 as int combinations of products of ladder charges, each term
# (coefficient, *names) of the composed charge's degree
_COMPOSITIONS = {
    "H3": ((1, "H1", "H1", "H1"), (-3, "H1", "J2"), (3, "J3")),
    "H4": ((1, "H1", "H1", "H1", "H1"), (2, "J2", "J2"),
           (-4, "H1", "H1", "J2"), (4, "H1", "J3"), (-4, "J4")),
}


def _composed(terms: tuple, ev: dict) -> tuple[int, int]:
    """The sum over ``terms`` of coefficient times the product of the
    named eigenvalue numerators, a Gaussian integer (re, im)."""
    re = im = 0
    for coeff, *names in terms:
        a, b = coeff, 0
        for name in names:
            x, y = ev[name]
            a, b = a * x - b * y, a * y + b * x
        re, im = re + a, im + b
    return re, im


def composition_identity_check(rapidities: RapiditySet) -> dict:
    """Verify the ladder compositions and the underlying Newton
    identities exactly at eigenvalue level; the rapidities must be
    rational.  Both are homogeneous, so they compare int numerators over
    the common denominator D: the state's numerators, p1-p4 and e1-e4
    are computed once (``_state_sums``), each charge's eigenvalue is a
    Gaussian integer over D^m with its registered sign and i^m
    (``_eigen_numerator``), and each composition of degree m is the
    Gaussian-integer combination of products of them, over D^m too."""
    n = len(rapidities)
    if n == 0:
        raise DomainError("composition identities need at least one particle")
    if rapidities.field is not EXACT:
        raise DomainError("composition identities are exact equalities: "
                          "give rational rapidities, not floats")
    sums, _ = _state_sums(rapidities)
    ev = {name: _eigen_numerator(name, sums) for name in CHARGES}

    p, e = sums["power"], sums["elementary"]
    newton3 = p[3] == e[1] ** 3 - 3 * e[1] * e[2] + 3 * e[3]
    newton4 = p[4] == (e[1] ** 4 - 4 * e[1] ** 2 * e[2] + 2 * e[2] ** 2
                       + 4 * e[1] * e[3] - 4 * e[4])

    report = {
        "n": n,
        "h3_composition": ev["H3"] == _composed(_COMPOSITIONS["H3"], ev),
        "h4_composition": ev["H4"] == _composed(_COMPOSITIONS["H4"], ev),
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
    each pinned pair distance runs over the fixed rule on [0, reach].
    Every exponential block sees a row only through alpha, beta or a gap
    exponent alpha - beta or beta - alpha (the inner rule of
    delta(u) delta(u+v)), so each is built once per distinct value and
    gathered per row: a Bethe state's 36 rows take 7 values of each.  For
    N = 3 the product delta(u) delta(v) pins both gaps, and the rule stays
    clear of the kink u + v = L of the measure only while 2 reach <= L;
    wider Gaussians are rejected.
    """
    if not 0 < L < math.inf:
        raise DomainError(f"box length must be positive and finite, got {L}")
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
    if w.n == 2:
        ea = np.exp(gaps * s)
        return 2.0 * (weight @ (ea * m) @ d2).real, 0.0
    if 2.0 * reach > L:
        raise DomainError(f"width {eps} too wide for box {L}: the N = 3 "
                          f"rule needs 2 * {DEFECT_REACH} * eps <= L")
    # blocks in alpha or beta alone, built once per distinct value
    value, row = np.unique(gaps, return_inverse=True)
    ia, ib = row.reshape(gaps.shape).T
    ev, phi2 = np.exp(value[:, None] * s), _phi(2, value[:, None] * m)
    ea, eb = ev[ia], ev[ib]
    # blocks in the gap exponent alpha - beta or beta - alpha
    alpha, beta = gaps.T
    gap, row = np.unique(np.concatenate([alpha - beta, beta - alpha]),
                         return_inverse=True)
    order = row.reshape(2, -1)              # alpha - beta, then beta - alpha
    # pinned u (v free), pinned v (u free), pinned u + v (split free)
    pair = ((ea * phi2[ib] + eb * phi2[ia]) * m * m
            + eb * s * _phi(1, gap[:, None] * s)[order[0]] * m) @ d2
    # delta(u) delta(v) separates: sum_ij d1_i d1_j (L - s_i - s_j) ea_i eb_j
    pa, pb, qa, qb = ea @ d1, eb @ d1, ea @ (s * d1), eb @ (s * d1)
    cross = L * pa * pb - qa * pb - pa * qb
    # delta(u) delta(u+v): pin u + v = s and u = s t, t on the rule over
    # [0, 1]; the exponent is beta s + (alpha - beta) s t.  Then u <-> v.
    st = np.multiply.outer(s, nodes)
    dt = weights * np.exp(-(st / eps) ** 2) / (eps * math.sqrt(math.pi))
    inner = np.einsum("tij,ij->ti", np.exp(gap[:, None, None] * st),
                      dt)[order]
    for rows, e_pinned in zip(inner, (eb, ea)):    # exp(beta s), exp(alpha s)
        cross = cross + (rows * e_pinned * s * m) @ d1
    return (2.0 * (weight @ pair).real, 2.0 * (weight @ cross).real)


def g4_defect_scan(w: BetheWavefunction, epsilons: Iterable[float],
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


def fit_loglog_slope(points: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log y against log x over (x, y) points; y is
    floored at 1e-300, so an exactly zero error stays finite."""
    xs = np.log([p[0] for p in points])
    ys = np.log([max(p[1], 1e-300) for p in points])
    return float(np.polyfit(xs, ys, 1)[0])


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
# Box norms and pair-delta overlaps
# ----------------------------------------------------------------------

def _placement(w: BetheWavefunction) -> tuple:
    """(P, P^2, beta, gauge) on the rapidity subsets S (bitmasks), in
    blocks from each size |S| = k up, padded to the widest level.  Placing
    a after S gains P[S, S+a] = (-1)^#{b in S: b > a} prod_{b in S}
    (l_a - l_b - i c); the orders of a < b at one point differ only in the
    last factor, so P^2 is 2 (l_b - l_a) P[S, S+a] P[S, S+b], the -i c
    cancelled exactly.  Each level is divided by its largest row sum of |P|,
    bounding those of |P| and |P^2| by 1.  beta[k, S] = i sum_{a not in S} l_a.
    """
    n, c = w.n, float(w.coupling.c)
    lam = np.array([float(v) for v in w.rapidities.values])
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1
    level, width = bits.sum(axis=1), math.comb(n, n // 2)
    pos = np.tril(level[:, None] == level, -1).sum(axis=1)  # rank in level
    later = np.arange(n) > np.arange(n)[:, None]            # [a, b]: b > a
    amp = (1 - 2 * ((bits[:, None, :] & later).sum(axis=2) & 1)) * np.where(
        bits[:, None, :], lam[:, None] - lam - 1j * c, 1.0).prod(axis=2)
    P, Q = np.zeros((2, n, width, width), dtype=complex)
    S, a = np.nonzero(~bits)
    P[level[S], pos[S], pos[S | 1 << a]] = amp[S, a]
    S, a, b = np.nonzero(~bits[:, :, None] & ~bits[:, None, :] & later)
    Q[level[S], pos[S], pos[S | 1 << a | 1 << b]] = (
        2.0 * (lam[b] - lam[a]) * amp[S, a] * amp[S, b])
    gauge = np.abs(P).sum(axis=2, keepdims=True).max(axis=1, keepdims=True)
    beta = np.zeros((n + 1, width), dtype=complex)
    beta[level, pos] = 1j * (~bits @ lam)
    return P / gauge, Q[:-1] / (gauge[:-1] * gauge[1:]), beta, gauge


def _box_solve(f, g, L: float, contact: bool) -> complex:
    """Integral of conj(chi_f) chi_g over 0 < x_1 < ... < x_N < L, or with
    ``contact`` of its restrictions to x_{p+1} = x_p summed over p.  With
    prefix sets S, T before a gap its phase is B = beta_g[T] + conj(beta_f[S]),
    so the sum over all orders is entry (empty, empty) -> (full, full) of
    exp(L Z), Z Y = B o Y + P_f^H Y P_g (path expansion of a graded
    exponential; McCurdy, Ng and Parlett, Math. Comp. 43 (1984)).  A contact
    steps by P^2 into a second copy of Y, so one solve covers every p.
    Error control: equal Taylor steps with h ||Z||_1 <= 4, by ||Z||_1 <=
    max|beta_f| + max|beta_g| + 1 (+ 1 for the contact copy), each summed
    until a term's 2-norm is below 2^-53 of the sum's.
    """
    if not 0 < L < math.inf:
        raise DomainError(f"box length must be positive and finite, got {L}")
    if f.n != g.n:
        raise ValueError("states must live in the same particle sector")
    pf, qf, beta_f, gauge_f = _placement(f)
    pg, qg, beta_g, gauge_g = _placement(g)
    bound = np.abs(beta_f).max() + np.abs(beta_g).max() + 1.0 + contact
    steps = max(1, math.ceil(L * bound / 4.0))
    h = L / steps                                           # folded into Z
    B = h * (beta_g[:, None, :] + beta_f.conj()[:, :, None])
    pf_h, qf_h = h * pf.conj().swapaxes(1, 2), h * qf.conj().swapaxes(1, 2)
    Y = np.zeros((1 + contact,) + B.shape, dtype=complex)
    Y[0, 0, 0, 0] = 1.0
    for _ in range(steps):
        term, m = Y, 0
        while m == 0 or np.linalg.norm(term) > 2.0 ** -53 * np.linalg.norm(Y):
            m += 1
            out = B * term
            out[:, 1:] += pf_h @ term[:, :-1] @ pg
            if contact:
                out[1, 2:] += qf_h @ term[0, :-2] @ qg
            term = out / m
            Y = Y + term
    return complex(Y[-1, -1, 0, 0]) * math.exp(np.log(gauge_f * gauge_g).sum())


def pair_delta_overlap(f: BetheWavefunction, g: BetheWavefunction,
                       L: float) -> complex:
    """<f| sum_{j<k} delta(x_j - x_k) |g> over the box [0, L]^N: each of the
    C(N, 2) pairs sits at boundary p = 1..N-1 of N - 1 ordered coordinates in
    (N - 2)! orderings.  Nonzero elements between distinct Bethe states expel
    the naively ordered quartic coefficient from the commuting family."""
    return math.factorial(f.n) // 2 * _box_solve(f, g, L, contact=True)


def norm_sq(f: BetheWavefunction, L: float) -> float:
    """Squared box norm of the (unnormalized) wavefunction."""
    return math.factorial(f.n) * _box_solve(f, f, L, contact=False).real


def normalized_pair_delta_overlap(f: BetheWavefunction, g: BetheWavefunction,
                                  L: float) -> complex:
    nf = norm_sq(f, L)
    ng = nf if g is f else norm_sq(g, L)
    return pair_delta_overlap(f, g, L) / math.sqrt(nf * ng)
