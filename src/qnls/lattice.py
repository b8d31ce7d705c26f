"""Lattice regularization of the delta Bose gas on a truncated Fock space.

Each of M sites carries occupations 0..d-1 with lattice Bose operators
normalized to [psi, psi^dag] = 1/Delta (on the levels below the cutoff):

    psi |n> = sqrt(n/Delta) |n-1>,    psi^dag |n> = sqrt((n+1)/Delta) |n+1>.

The local building block is the 2x2 auxiliary-space matrix

    L(n|lam) = [ 1 - i lam Delta/2 + (c Delta^2/2) psi^dag psi ,
                 -i Delta sqrt(c) psi^dag rho ;
                 +i Delta sqrt(c) rho psi ,
                 1 + i lam Delta/2 + (c Delta^2/2) psi^dag psi ],
    rho = sqrt(1 + (c Delta^2/4) psi^dag psi),

the monodromy is the site-ordered product T(lam) = L(M) ... L(1), and
the transfer operator is its auxiliary trace tau(lam) = A + D.  The
commuting-family checks rely on the cutoff rule d >= N + 2: every
monodromy monomial touches each site exactly once, so one buffer level
above the sector occupation makes the restricted matrices exact, and a
second level keeps the diagonal rho factors inside their domain.

The 4x4 intertwiner R(lam, mu) with entries f(mu,lam) = (mu-lam+ic)/(mu-lam)
and g(mu,lam) = ic/(mu-lam) does not depend on Delta; the exchange
relation it encodes is verified numerically for both tensor-leg
orderings and the vanishing one is recorded (the convention is not fixed
a priori here).

Both engines are site-local: every monodromy monomial applies exactly one
single-site factor per site, so no engine builds a full-space operator
for a single site.  The sector engine multiplies a (d, d, 2, 2) table of
scalar site factors over all config pairs at once, one batched product
per site.  The full-space engine applies L(site) to the running block
product as a contraction on that site's tensor axis, O(d dim^2) per site
for dim = d^M.  The full-space checks hold a known number of dim x dim
complex blocks; their byte total is checked against DENSE_BUDGET_BYTES
before anything is allocated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CutoffTooSmall, RMatrixPole, SizeLimit
from .transfer import theta

DENSE_BUDGET_BYTES = 2 ** 30
COMPLEX_BYTES = 16
# Dense complex blocks alive at once, full (dim x dim) or kept (restricted
# to the (d-1)^M states with every occupation <= d-2).  monodromy: the 4
# running blocks, 3 finished new ones, the one being formed and one site
# contraction.  rtt_residual: the first monodromy while the second is
# built (4 + 9), then 32 kept tensor-block products plus the per-entry
# temporaries and the norm's copy.
MONODROMY_BLOCKS = 9
RTT_BLOCKS = 4 + MONODROMY_BLOCKS
RTT_KEPT_BLOCKS = 40


@dataclass(frozen=True)
class LatticeSpec:
    """M sites, per-site cutoff d (occupations 0..d-1), step Delta, coupling c."""

    sites: int
    cutoff: int
    step: float
    c: float

    def __post_init__(self):
        if self.sites < 1 or self.cutoff < 1 or self.step <= 0 or self.c <= 0:
            raise ValueError("need M >= 1, d >= 1, Delta > 0, c > 0")

    @property
    def length(self) -> float:
        return self.sites * self.step


# ----------------------------------------------------------------------
# Site operators
# ----------------------------------------------------------------------

def annihilator(d: int, step: float) -> np.ndarray:
    a = np.zeros((d, d), dtype=complex)
    for n in range(1, d):
        a[n - 1, n] = math.sqrt(n / step)
    return a


def creator(d: int, step: float) -> np.ndarray:
    return annihilator(d, step).conj().T


def density_sqrt(d: int, step: float, c: float) -> np.ndarray:
    """rho = sqrt(1 + (c Delta^2/4) psi^dag psi), diagonal in occupation."""
    diag = [math.sqrt(1.0 + c * step * n / 4.0) for n in range(d)]
    return np.diag(diag).astype(complex)


def density_sqrt_naive_ordered(d: int, step: float, c: float) -> np.ndarray:
    """The square root expanded and ordered by the classical rule.

    Each power (psi^dag psi)^j of the expansion is replaced by the
    daggers-left monomial psi^dag^j psi^j, whose diagonal value is the
    falling factorial n(n-1)...(n-j+1)/Delta^j.  The series terminates at
    j = n, so the truncated matrix is exact.  Differs from the true
    square root from occupation 1 upward at order (c Delta)^2.
    """
    diag = []
    x = c * step / 4.0
    for n in range(d):
        total = 0.0
        binom = 1.0  # binomial(1/2, j), iteratively
        falling = 1.0
        for j in range(n + 1):
            total += binom * (x ** j) * falling
            binom *= (0.5 - j) / (j + 1)
            falling *= (n - j)
        diag.append(total)
    return np.diag(diag).astype(complex)


def site_l_blocks(spec: LatticeSpec, lam: complex,
                  rho: np.ndarray | None = None) -> list[list[np.ndarray]]:
    """The 2x2 auxiliary matrix of d x d site operators."""
    d, step, c = spec.cutoff, spec.step, spec.c
    psi = annihilator(d, step)
    psid = creator(d, step)
    num = psid @ psi
    rho = density_sqrt(d, step, c) if rho is None else rho
    eye = np.eye(d, dtype=complex)
    a = (1.0 - 0.5j * lam * step) * eye + 0.5 * c * step * step * num
    dd = (1.0 + 0.5j * lam * step) * eye + 0.5 * c * step * step * num
    b = -1j * step * math.sqrt(c) * (psid @ rho)
    cc = 1j * step * math.sqrt(c) * (rho @ psi)
    return [[a, b], [cc, dd]]


# ----------------------------------------------------------------------
# Full-space monodromy (small M)
# ----------------------------------------------------------------------

def dense_bytes(spec: LatticeSpec, blocks: int, kept_blocks: int = 0) -> int:
    """Bytes of ``blocks`` full (dim x dim) and ``kept_blocks`` kept
    complex blocks, the latter restricted to the (d-1)^M states with every
    occupation <= d-2."""
    dim = spec.cutoff ** spec.sites
    kept = (spec.cutoff - 1) ** spec.sites
    return COMPLEX_BYTES * (blocks * dim * dim + kept_blocks * kept * kept)


def _check_dense_budget(spec: LatticeSpec, what: str, blocks: int,
                        kept_blocks: int = 0) -> int:
    """Full space dimension, once the dense blocks of ``what`` fit the
    byte budget; raises SizeLimit before anything is allocated."""
    dim = spec.cutoff ** spec.sites
    need = dense_bytes(spec, blocks, kept_blocks)
    if need > DENSE_BUDGET_BYTES:
        raise SizeLimit(
            f"{what} at dimension {dim} needs {need} bytes of dense complex "
            f"blocks, over the budget of {DENSE_BUDGET_BYTES} bytes")
    return dim


def monodromy(spec: LatticeSpec, lam: complex,
              rho_override=None) -> list[list[np.ndarray]]:
    """T(lam) = L(M) ... L(1) as a 2x2 block matrix of full-space operators.

    Site s is the middle axis of a block viewed as (d^(M-s), d,
    d^(s-1) dim) (site 1 is the rightmost tensor factor), so L(s) T is
    one matmul of each d x d site block against that view.
    """
    dim = _check_dense_budget(spec, "monodromy", MONODROMY_BLOCKS)
    d, M = spec.cutoff, spec.sites
    L = site_l_blocks(spec, lam, rho=rho_override)
    T = [[np.eye(dim, dtype=complex), np.zeros((dim, dim), dtype=complex)],
         [np.zeros((dim, dim), dtype=complex), np.eye(dim, dtype=complex)]]
    for site in range(1, M + 1):
        axes = (d ** (M - site), d, d ** (site - 1) * dim)
        # left-multiply the running product by the new site: T <- L(site) T
        new = [[None, None], [None, None]]
        for r in range(2):
            for s in range(2):
                block = L[r][0] @ T[0][s].reshape(axes)
                block += L[r][1] @ T[1][s].reshape(axes)
                new[r][s] = block.reshape(dim, dim)
        T = new
    return T


def transfer_operator(spec: LatticeSpec, lam: complex) -> np.ndarray:
    T = monodromy(spec, lam)
    return T[0][0] + T[1][1]


# ----------------------------------------------------------------------
# Occupation sectors
# ----------------------------------------------------------------------

def occupation_configs(spec: LatticeSpec, total: int) -> list[tuple[int, ...]]:
    """All site-occupation tuples with the given total, entries <= d-1."""
    configs = []
    for combo in itertools.product(range(spec.cutoff), repeat=spec.sites):
        if sum(combo) == total:
            configs.append(combo)
    return configs


def number_conservation_defect(spec: LatticeSpec, lam: complex) -> float:
    """Largest matrix element of tau(lam) connecting different sectors."""
    tau = transfer_operator(spec, lam)
    counts = _occupations(spec).sum(axis=1)
    mask = counts[:, None] != counts[None, :]
    return float(np.max(np.abs(tau[mask]))) if mask.any() else 0.0


def _occupations(spec: LatticeSpec) -> np.ndarray:
    """Row i: the site occupations of full-space basis state i, site 1 first."""
    index = np.arange(spec.cutoff ** spec.sites)
    return index[:, None] // spec.cutoff ** np.arange(spec.sites) % spec.cutoff


# ----------------------------------------------------------------------
# Sector transfer matrix by auxiliary contraction (large M, small sectors)
# ----------------------------------------------------------------------

def _site_factor_table(spec: LatticeSpec, lam: complex) -> np.ndarray:
    """table[n', n] = <n'| L(lam) |n>, the scalar 2x2 factor of one site;
    zero unless |n' - n| <= 1."""
    d, step, c = spec.cutoff, spec.step, spec.c
    table = np.zeros((d, d, 2, 2), dtype=complex)
    for n in range(d):
        table[n, n, 0, 0] = 1.0 - 0.5j * lam * step + 0.5 * c * step * n
        table[n, n, 1, 1] = 1.0 + 0.5j * lam * step + 0.5 * c * step * n
        if n + 1 < d:
            table[n + 1, n, 0, 1] = -1j * step * math.sqrt(c) \
                * math.sqrt((n + 1) / step) \
                * math.sqrt(1.0 + c * step * n / 4.0)
        if n >= 1:
            table[n - 1, n, 1, 0] = 1j * step * math.sqrt(c) \
                * math.sqrt(1.0 + c * step * (n - 1) / 4.0) \
                * math.sqrt(n / step)
    return table


def tau_sector_matrix(spec: LatticeSpec, lam: complex,
                      configs: Sequence[Sequence[int]]) -> np.ndarray:
    """<c'| tau(lam) |c> for the listed occupation configs.

    Monodromy monomials are tensor products of one operator per site, so
    a matrix element is the trace of an ordered product of M scalar 2x2
    matrices M_site(n'_s, n_s); this needs no full-space construction
    and scales to long lattices.  The products for all config pairs are
    taken together, one batched matmul per site.
    """
    occ = np.asarray(configs, dtype=np.intp).reshape(len(configs), spec.sites)
    if occ.size and not (0 <= occ.min() and occ.max() < spec.cutoff):
        raise ValueError(f"occupations must lie in 0..{spec.cutoff - 1}")
    table = _site_factor_table(spec, lam)
    m = len(occ)
    prod = np.broadcast_to(np.eye(2, dtype=complex), (m, m, 2, 2))
    # T = L(M) ... L(1): site M leftmost
    for site in reversed(range(spec.sites)):
        prod = prod @ table[occ[:, None, site], occ[None, :, site]]
    return prod[..., 0, 0] + prod[..., 1, 1]


# ----------------------------------------------------------------------
# R-matrix and exchange relation
# ----------------------------------------------------------------------

def r_matrix(lam: complex, mu: complex, c: float) -> np.ndarray:
    if abs(mu - lam) < 1e-12:
        raise RMatrixPole("coinciding spectral parameters")
    f = (mu - lam + 1j * c) / (mu - lam)
    g = 1j * c / (mu - lam)
    return np.array([
        [f, 0, 0, 0],
        [0, g, 1, 0],
        [0, 1, g, 0],
        [0, 0, 0, f],
    ], dtype=complex)


def _tensor_blocks(T1, T2, keep: np.ndarray) -> dict:
    """(T1 (x) T2)_{(ab),(cd)} = T1_ac T2_bd with operator entries,
    restricted to the basis states ``keep`` as each product is formed."""
    sub = np.ix_(keep, keep)
    blocks = {}
    for a in range(2):
        for b in range(2):
            for cc in range(2):
                for dd in range(2):
                    product = T1[a][cc] @ T2[b][dd]
                    blocks[(2 * a + b, 2 * cc + dd)] = product[sub]
    return blocks


def _exchange_defect(R: np.ndarray, X: dict, Y: dict) -> float:
    """Largest 2-norm over the 16 operator entries of R X - Y R, each
    entry formed and measured in turn."""
    if not X[(0, 0)].size:
        return 0.0
    shape = X[(0, 0)].shape
    worst = 0.0
    for r in range(4):
        for s in range(4):
            lhs = np.zeros(shape, dtype=complex)
            rhs = np.zeros(shape, dtype=complex)
            for t in range(4):
                if R[r, t] != 0:
                    lhs = lhs + R[r, t] * X[(t, s)]
                if R[t, s] != 0:
                    rhs = rhs + Y[(r, t)] * R[t, s]
            worst = max(worst, float(np.linalg.norm(lhs - rhs, 2)))
    return worst


def rtt_residual(lam: complex, mu: complex, spec: LatticeSpec) -> dict:
    """Exchange-relation defect for both tensor-leg orderings.

    Restricted to states with every occupation <= d-2, where truncation
    cannot clip the two-operator products.  Returns both residuals and
    the ordering that vanishes.
    """
    if abs(lam - mu) < 1e-12:
        raise RMatrixPole("coinciding spectral parameters")
    _check_dense_budget(spec, "exchange relation", RTT_BLOCKS, RTT_KEPT_BLOCKS)
    R = r_matrix(lam, mu, spec.c)
    keep = np.flatnonzero(_occupations(spec).max(axis=1) <= spec.cutoff - 2)
    Tl = monodromy(spec, lam)
    Tm = monodromy(spec, mu)
    lm = _tensor_blocks(Tl, Tm, keep)
    ml = _tensor_blocks(Tm, Tl, keep)
    # R (T(lam) x T(mu)) = (T(mu) x T(lam)) R
    res_a = _exchange_defect(R, lm, ml)
    res_b = _exchange_defect(R, ml, lm)
    return {
        "residual_lam_mu": res_a,
        "residual_mu_lam": res_b,
        "residual": min(res_a, res_b),
        "ordering": "lam_mu" if res_a <= res_b else "mu_lam",
    }


def tau_commutator_norm(lam: complex, mu: complex, spec: LatticeSpec,
                        n_sector: int, enforce_cutoff: bool = True) -> float:
    """|| [tau(lam), tau(mu)] || on the fixed-number sector block."""
    if enforce_cutoff and spec.cutoff < n_sector + 2:
        raise CutoffTooSmall(
            f"sector {n_sector} needs cutoff >= {n_sector + 2}, got {spec.cutoff}")
    configs = occupation_configs(spec, n_sector)
    if not configs:
        raise CutoffTooSmall("sector empty at this cutoff")
    ta = tau_sector_matrix(spec, lam, configs)
    tb = tau_sector_matrix(spec, mu, configs)
    return float(np.linalg.norm(ta @ tb - tb @ ta, 2))


def hermiticity_pairing_defect(spec: LatticeSpec, lam: float) -> float:
    """At real lam the diagonal monodromy entries are mutual adjoints."""
    T = monodromy(spec, float(lam))
    return float(np.linalg.norm(T[0][0].conj().T - T[1][1], 2))


# ----------------------------------------------------------------------
# Continuum limit
# ----------------------------------------------------------------------

def vacuum_eigenvalue(spec: LatticeSpec, lam: complex) -> complex:
    step = spec.step
    return ((1.0 - 0.5j * lam * step) ** spec.sites
            + (1.0 + 0.5j * lam * step) ** spec.sites)


def one_particle_eigenvalue(spec: LatticeSpec, lam: complex,
                            momentum_index: int) -> complex:
    """Transfer eigenvalue on the one-particle plane-wave state with
    lattice momentum 2 pi n / L.

    tau commutes with the cyclic shift, so Fourier modes diagonalize the
    one-particle block exactly; the eigenvalue is a Rayleigh quotient on
    the exact eigenvector.
    """
    M = spec.sites
    configs = [tuple(1 if s == m else 0 for s in range(M)) for m in range(M)]
    block = tau_sector_matrix(spec, lam, configs)
    vec = np.exp(2j * np.pi * momentum_index * np.arange(M) / M)
    val = (vec.conj() @ block @ vec) / (vec.conj() @ vec)
    # confirm vec is an eigenvector, not just a stationary direction
    resid = np.linalg.norm(block @ vec - val * vec) / np.linalg.norm(vec)
    if resid > 1e-8 * max(1.0, abs(val)):
        raise ArithmeticError(f"Fourier mode failed to diagonalize: {resid}")
    return complex(val)


def continuum_limit_rate(c: float, L: float, lam: complex,
                         site_counts: Sequence[int] = (8, 16, 32, 64),
                         momentum_index: int = 1,
                         cutoff: int = 3) -> dict:
    """Convergence of lattice transfer eigenvalues to the continuum ones.

    Vacuum sector: compares with 2 cos(lam L / 2).  One-particle sector:
    compares with the continuum eigenvalue at k = 2 pi n / L.  Both the
    raw eigenvalue error (first order in Delta, from the per-site modulus
    factor sqrt(1 + lam^2 Delta^2 / 4)) and the modulus-normalized error
    (second order) are fitted; the normalized order is the headline rate.
    """
    rows = []
    for M in site_counts:
        spec = LatticeSpec(M, cutoff, L / M, c)
        norm_factor = (1.0 + (lam * spec.step / 2.0) ** 2) ** (M / 2.0)
        vac = vacuum_eigenvalue(spec, lam)
        vac_target = theta(lam, [], c, L)
        one = one_particle_eigenvalue(spec, lam, momentum_index)
        k = 2.0 * np.pi * momentum_index / L
        one_target = theta(lam, [k], c, L)
        rows.append({
            "sites": M,
            "step": spec.step,
            "vacuum_error_raw": abs(vac - vac_target),
            "vacuum_error_normalized": abs(vac / norm_factor - vac_target),
            "one_particle_error_raw": abs(one - one_target),
            "one_particle_error_normalized": abs(one / norm_factor - one_target),
        })

    def fit(key):
        xs = np.log([r["step"] for r in rows])
        ys = np.log([max(r[key], 1e-300) for r in rows])
        return float(np.polyfit(xs, ys, 1)[0])

    return {
        "rows": rows,
        "order_vacuum_raw": fit("vacuum_error_raw"),
        "order_vacuum_normalized": fit("vacuum_error_normalized"),
        "order_one_particle_raw": fit("one_particle_error_raw"),
        "order_one_particle_normalized": fit("one_particle_error_normalized"),
    }


# ----------------------------------------------------------------------
# Ordering breakdown on the lattice
# ----------------------------------------------------------------------

def normal_ordering_breakdown(spec_two_sites: LatticeSpec, lam: complex) -> dict:
    """Compare the (1,1) monodromy entry of a two-site lattice against
    the version whose square-root density factors are expanded and
    ordered by the classical (commutator-dropping) rule.

    For a single site that entry contains only the already-ordered
    psi^dag psi, so the difference vanishes identically; for two sites
    the cross term (creator rho)(rho annihilator) picks up the ordering
    defect of rho, of relative size (c Delta)^2.
    """
    spec = spec_two_sites
    if spec.sites != 2:
        raise ValueError("the demonstration is defined on two sites")
    if spec.cutoff < 3:
        raise ValueError("need cutoff >= 3 so an occupation >= 2 exists")

    one_site = LatticeSpec(1, spec.cutoff, spec.step, spec.c)
    t1 = monodromy(one_site, lam)[0][0]
    t1_naive = monodromy(one_site, lam,
                         rho_override=density_sqrt_naive_ordered(
                             spec.cutoff, spec.step, spec.c))[0][0]
    m1_diff = float(np.linalg.norm(t1 - t1_naive, 2))

    exact_entry = monodromy(spec, lam)[0][0]
    naive_entry = monodromy(spec, lam,
                            rho_override=density_sqrt_naive_ordered(
                                spec.cutoff, spec.step, spec.c))[0][0]
    # scale of the ordering-sensitive cross term: B(2) C(1)
    blocks = site_l_blocks(spec, lam)
    cross = np.kron(blocks[0][1], blocks[1][0])
    cross_scale = float(np.linalg.norm(cross, 2))
    diff = float(np.linalg.norm(exact_entry - naive_entry, 2))
    return {
        "one_site_difference": m1_diff,
        "two_site_difference": diff,
        "relative_difference": diff / cross_scale,
    }


def ordering_defect_rate(c: float, cutoff: int, steps: Sequence[float],
                         lam: complex) -> dict:
    """Fit of the relative ordering defect against the lattice step."""
    rows = []
    for step in steps:
        rep = normal_ordering_breakdown(LatticeSpec(2, cutoff, step, c), lam)
        rows.append((step, rep["relative_difference"]))
    xs = np.log([r[0] for r in rows])
    ys = np.log([r[1] for r in rows])
    return {"rows": rows, "order": float(np.polyfit(xs, ys, 1)[0])}
