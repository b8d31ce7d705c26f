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

One table defines L: ``_site_factor_table`` holds the scalar 2x2
factors <n'| L(lam) |n> of one site, zero unless |n' - n| <= 1.  Every
monodromy monomial applies one single-site factor per site, so every
engine reads that table:

- sector matrices multiply it over all config pairs at once, one batched
  product per site (``_contract_sites``);
- the full-space monodromy applies each d x d slice table[:, :, r, s] as
  a contraction on that site's tensor axis, O(d dim^2) per site for
  dim = d^M;
- the exchange relation builds no full-space block: T(lam) (x) T(mu) is
  itself a monodromy, with the 4x4 site factor
  sum_n'' L(lam)[n', n''] (x) L(mu)[n'', n], so both tensor orderings are
  contracted over the (d-1)^M kept states only.

Each operator whose 2-norm the exchange relation or the adjoint pairing
takes moves particle number by a fixed amount (A and D conserve it, B
and C shift it by +1 and -1), so it is block diagonal once rows and
columns are ordered by number, and its 2-norm is the largest block
2-norm.  ``_sector_norm`` takes it that way, one small SVD per sector,
and adds the Frobenius norm of every entry off the blocks; that term is
0 when the operator moves number by exactly the given amount, so the
result is exact then and an upper bound on the full 2-norm always.
``tau_commutator_norm`` already works in one sector, and
``normal_ordering_breakdown`` measures 9 x 9 blocks; both take plain
2-norms.

The monodromy holds a known number of dim x dim complex blocks and the
exchange relation a known number of kept x kept ones; their bytes are
checked against DENSE_BUDGET_BYTES before anything is allocated.
"""

from __future__ import annotations

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
# contraction.  rtt_residual holds only kept blocks, 16 per (kept, kept,
# 4, 4) stack: the first ordering's finished stack while the second is
# contracted, whose running product, gathered site factors and new product
# are alive together.
MONODROMY_BLOCKS = 9
RTT_KEPT_BLOCKS = 4 * 16
# continuum_limit_rate: one-particle momentum index and per-site cutoff
CONTINUUM_MOMENTUM_INDEX = 1
CONTINUUM_CUTOFF = 3


@dataclass(frozen=True)
class LatticeSpec:
    """M sites, per-site cutoff d (occupations 0..d-1), step Delta, coupling c."""

    sites: int
    cutoff: int
    step: float
    c: float

    def __post_init__(self):
        if not (math.isfinite(self.step) and math.isfinite(self.c)):
            raise ValueError("need finite Delta and c")
        if self.sites < 1 or self.cutoff < 1 or self.step <= 0 or self.c <= 0:
            raise ValueError("need M >= 1, d >= 1, Delta > 0, c > 0")

    @property
    def length(self) -> float:
        return self.sites * self.step


# ----------------------------------------------------------------------
# The site factor L(lam)
# ----------------------------------------------------------------------

def density_sqrt_naive_ordered(d: int, step: float, c: float) -> np.ndarray:
    """Diagonal of the square root, expanded and ordered classically.

    Each power (psi^dag psi)^j of the expansion is replaced by the
    daggers-left monomial psi^dag^j psi^j, whose diagonal value is the
    falling factorial n(n-1)...(n-j+1)/Delta^j.  The series terminates at
    j = n, so the truncated diagonal is exact.  Differs from the true
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
    return np.array(diag)


def _site_factor_table(spec: LatticeSpec, lam: complex,
                       rho: Sequence[float] | None = None) -> np.ndarray:
    """table[n', n] = <n'| L(lam) |n>, the scalar 2x2 factor of one site;
    zero unless |n' - n| <= 1.  ``rho`` is the diagonal that replaces
    sqrt(1 + (c Delta^2/4) psi^dag psi) = sqrt(1 + c Delta n / 4)."""
    d, step, c = spec.cutoff, spec.step, spec.c
    if rho is None:
        rho = [math.sqrt(1.0 + c * step * n / 4.0) for n in range(d)]
    table = np.zeros((d, d, 2, 2), dtype=complex)
    for n in range(d):
        table[n, n, 0, 0] = 1.0 - 0.5j * lam * step + 0.5 * c * step * n
        table[n, n, 1, 1] = 1.0 + 0.5j * lam * step + 0.5 * c * step * n
        if n + 1 < d:
            table[n + 1, n, 0, 1] = -1j * step * math.sqrt(c) \
                * math.sqrt((n + 1) / step) * rho[n]
        if n >= 1:
            table[n - 1, n, 1, 0] = 1j * step * math.sqrt(c) * rho[n - 1] \
                * math.sqrt(n / step)
    return table


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
    need = dense_bytes(spec, blocks, kept_blocks)
    if need > DENSE_BUDGET_BYTES:
        raise SizeLimit(
            f"{what} at {spec.sites} sites, cutoff {spec.cutoff} needs "
            f"{need} bytes of dense complex blocks, over the budget of "
            f"{DENSE_BUDGET_BYTES} bytes")
    return spec.cutoff ** spec.sites


def monodromy(spec: LatticeSpec, lam: complex,
              rho_override=None) -> list[list[np.ndarray]]:
    """T(lam) = L(M) ... L(1) as a 2x2 block matrix of full-space operators.

    Site s is the middle axis of a block viewed as (d^(M-s), d,
    d^(s-1) dim) (site 1 is the rightmost tensor factor), so L(s) T is
    one matmul of each d x d slice of the site-factor table against that
    view.  ``rho_override`` replaces the table's rho diagonal.
    """
    dim = _check_dense_budget(spec, "monodromy", MONODROMY_BLOCKS)
    d, M = spec.cutoff, spec.sites
    # L[r, s] = table[:, :, r, s], the d x d site operator of entry (r, s)
    L = _site_factor_table(spec, lam, rho_override).transpose(2, 3, 0, 1)
    T = [[np.eye(dim, dtype=complex), np.zeros((dim, dim), dtype=complex)],
         [np.zeros((dim, dim), dtype=complex), np.eye(dim, dtype=complex)]]
    for site in range(1, M + 1):
        axes = (d ** (M - site), d, d ** (site - 1) * dim)
        # left-multiply the running product by the new site: T <- L(site) T
        new = [[None, None], [None, None]]
        for r in range(2):
            for s in range(2):
                block = L[r, 0] @ T[0][s].reshape(axes)
                block += L[r, 1] @ T[1][s].reshape(axes)
                new[r][s] = block.reshape(dim, dim)
        T = new
    return T


def transfer_operator(spec: LatticeSpec, lam: complex) -> np.ndarray:
    T = monodromy(spec, lam)
    return T[0][0] + T[1][1]


# ----------------------------------------------------------------------
# Occupation sectors
# ----------------------------------------------------------------------

def occupation_configs(spec: LatticeSpec, total: int) -> np.ndarray:
    """Rows: the site occupations with the given total, entries <= d-1,
    in lexicographic order (site M the fastest index)."""
    occ = _occupations(spec.cutoff, spec.sites)[:, ::-1]
    return occ[occ.sum(axis=1) == total]


def number_conservation_defect(spec: LatticeSpec, lam: complex) -> float:
    """Largest matrix element of tau(lam) connecting different sectors."""
    tau = transfer_operator(spec, lam)
    counts = _occupations(spec.cutoff, spec.sites).sum(axis=1)
    mask = counts[:, None] != counts[None, :]
    return float(np.max(np.abs(tau[mask]))) if mask.any() else 0.0


def _occupations(cutoff: int, sites: int) -> np.ndarray:
    """Row i: the site occupations of basis state i of ``sites`` sites with
    occupations 0..cutoff-1, site 1 first (the fastest index)."""
    index = np.arange(cutoff ** sites)
    return index[:, None] // cutoff ** np.arange(sites) % cutoff


# ----------------------------------------------------------------------
# Sector transfer matrix by auxiliary contraction (large M, small sectors)
# ----------------------------------------------------------------------

def _contract_sites(table: np.ndarray, occ: np.ndarray) -> np.ndarray:
    """out[i, j] = table[occ[i, M-1], occ[j, M-1]] ... table[occ[i, 0],
    occ[j, 0]], the auxiliary k x k product of a (d, d, k, k) site table
    between occupation rows i and j, site M leftmost.  All pairs are taken
    together, one batched matmul per site."""
    m, k = len(occ), table.shape[-1]
    prod = np.broadcast_to(np.eye(k, dtype=complex), (m, m, k, k))
    for site in reversed(range(occ.shape[1])):
        prod = prod @ table[occ[:, None, site], occ[None, :, site]]
    return prod


def tau_sector_matrix(spec: LatticeSpec, lam: complex,
                      configs: Sequence[Sequence[int]]) -> np.ndarray:
    """<c'| tau(lam) |c> for the listed occupation configs.

    Monodromy monomials are tensor products of one operator per site, so
    a matrix element is the trace of an ordered product of M scalar 2x2
    matrices M_site(n'_s, n_s); this needs no full-space construction
    and scales to long lattices.
    """
    occ = np.asarray(configs, dtype=np.intp).reshape(len(configs), spec.sites)
    if occ.size and not (0 <= occ.min() and occ.max() < spec.cutoff):
        raise ValueError(f"occupations must lie in 0..{spec.cutoff - 1}")
    prod = _contract_sites(_site_factor_table(spec, lam), occ)
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


def _pair_table(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Site factor of T1 (x) T2, whose entry (ab),(cd) is the operator
    product T1_ac T2_bd: sum_n'' t1[n', n''] (x) t2[n'', n] as a (d, d, 4, 4)
    table with auxiliary index 2a + b."""
    d = len(t1)
    return np.einsum("xzac,zybd->xyabcd", t1, t2).reshape(d, d, 4, 4)


def _sector_norm(X: np.ndarray, counts: np.ndarray, shift: int = 0) -> float:
    """Upper bound on ||X||_2 for a square X over states with particle
    numbers ``counts``, exact when X moves number by ``shift``.

    Such an X is block diagonal once rows and columns are ordered by
    number: rows in sector n + shift against columns in sector n, one
    block per n.  Its 2-norm is the largest block 2-norm.  The Frobenius norm of every entry outside
    those blocks is added, which is 0 for a number-shifting X and keeps
    the result >= ||X||_2 for any X, so a conservation fault raises the
    residual rather than hiding it.
    """
    # sort the states by number: each block is then a contiguous slice
    order = np.argsort(counts, kind="stable")
    P = X[np.ix_(order, order)]
    return float(_sorted_sector_norms(P[None], _sector_edges(counts[order]),
                                      shift)[0])


def _sector_edges(counts: np.ndarray) -> np.ndarray:
    """edges[n]: the first state of sector n in a basis sorted by number
    ``counts``, up to edges[max + 1] = len(counts)."""
    return np.searchsorted(counts, np.arange(counts.max(initial=0) + 2))


def _sorted_sector_norms(P: np.ndarray, edges: np.ndarray,
                         shift: int) -> np.ndarray:
    """``_sector_norm`` of each matrix of a (k, m, m) stack P over states
    already sorted by number, sector n spanning edges[n]:edges[n + 1]:
    one SVD call per block for the whole stack.  Zeroes the blocks of P."""
    worst = np.zeros(len(P))
    for n in range(max(0, -shift), len(edges) - 1 - max(0, shift)):
        block = P[:, edges[n + shift]:edges[n + shift + 1], edges[n]:edges[n + 1]]
        if block.size:
            worst = np.maximum(worst, np.linalg.svd(block, compute_uv=False)[:, 0])
            block[...] = 0.0   # P keeps only the entries off the blocks
    return worst + [np.linalg.norm(p) for p in P]


def _exchange_defect(R: np.ndarray, X: np.ndarray, Y: np.ndarray,
                     edges: np.ndarray) -> float:
    """Largest 2-norm over the 16 operator entries of R X - Y R for
    (m, m, 4, 4) stacks X and Y over states sorted by particle number,
    sector n spanning edges[n]:edges[n + 1].

    T_ac moves number by c - a, so entry (ab),(cd) of T (x) T, at auxiliary
    index 2a + b, moves it by popcount(2c + d) - popcount(2a + b).  R only
    swaps indices 1 and 2, so entry (r, s) of R X - Y R moves number by
    popcount(s) - popcount(r) and is measured per sector (``_sector_norm``),
    the entries of one shift together.
    """
    worst = 0.0
    for shift in range(-2, 3):
        stack = np.stack([X[:, :, :, s] @ R[r] - Y[:, :, r, :] @ R[:, s]
                          for r in range(4) for s in range(4)
                          if s.bit_count() - r.bit_count() == shift])
        worst = max(worst, _sorted_sector_norms(stack, edges, shift).max())
    return float(worst)


def rtt_residual(lam: complex, mu: complex, spec: LatticeSpec) -> dict:
    """Exchange-relation defect for both tensor-leg orderings.

    Restricted to states with every occupation <= d-2, where truncation
    cannot clip the two-operator products.  Each tensor ordering is a
    monodromy of the 4x4 pair table, contracted between the kept states
    only.  Returns both residuals and the ordering that vanishes.
    """
    if abs(lam - mu) < 1e-12:
        raise RMatrixPole("coinciding spectral parameters")
    _check_dense_budget(spec, "exchange relation", 0, RTT_KEPT_BLOCKS)
    R = r_matrix(lam, mu, spec.c)
    keep = _occupations(spec.cutoff - 1, spec.sites)
    # kept states sorted by number, so every sector is a contiguous slice
    keep = keep[np.argsort(keep.sum(axis=1), kind="stable")]
    tl, tm = _site_factor_table(spec, lam), _site_factor_table(spec, mu)
    lm = _contract_sites(_pair_table(tl, tm), keep)
    ml = _contract_sites(_pair_table(tm, tl), keep)
    # R (T(lam) x T(mu)) = (T(mu) x T(lam)) R
    edges = _sector_edges(keep.sum(axis=1))
    res_a = _exchange_defect(R, lm, ml, edges)
    res_b = _exchange_defect(R, ml, lm, edges)
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
    if not len(configs):
        raise CutoffTooSmall("sector empty at this cutoff")
    ta = tau_sector_matrix(spec, lam, configs)
    tb = tau_sector_matrix(spec, mu, configs)
    return float(np.linalg.norm(ta @ tb - tb @ ta, 2))


def hermiticity_pairing_defect(spec: LatticeSpec, lam: float) -> float:
    """At real lam the diagonal monodromy entries are mutual adjoints:
    ||A^dag - D||_2, measured per number sector (``_sector_norm``)."""
    T = monodromy(spec, float(lam))
    counts = _occupations(spec.cutoff, spec.sites).sum(axis=1)
    return _sector_norm(T[0][0].conj().T - T[1][1], counts)


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
                         site_counts: Sequence[int] = (8, 16, 32, 64)) -> dict:
    """Convergence of lattice transfer eigenvalues to the continuum ones.

    Vacuum sector: compares with 2 cos(lam L / 2).  One-particle sector:
    compares with the continuum eigenvalue at k = 2 pi n / L.  Both the
    raw eigenvalue error (first order in Delta, from the per-site modulus
    factor sqrt(1 + lam^2 Delta^2 / 4)) and the modulus-normalized error
    (second order) are fitted; the normalized order is the headline rate.
    """
    n = CONTINUUM_MOMENTUM_INDEX
    rows = []
    for M in site_counts:
        spec = LatticeSpec(M, CONTINUUM_CUTOFF, L / M, c)
        norm_factor = (1.0 + (lam * spec.step / 2.0) ** 2) ** (M / 2.0)
        vac = vacuum_eigenvalue(spec, lam)
        vac_target = theta(lam, [], c, L)
        one = one_particle_eigenvalue(spec, lam, n)
        k = 2.0 * np.pi * n / L
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

    naive = density_sqrt_naive_ordered(spec.cutoff, spec.step, spec.c)
    one_site = LatticeSpec(1, spec.cutoff, spec.step, spec.c)
    t1 = monodromy(one_site, lam)[0][0]
    t1_naive = monodromy(one_site, lam, rho_override=naive)[0][0]
    m1_diff = float(np.linalg.norm(t1 - t1_naive, 2))

    exact_entry = monodromy(spec, lam)[0][0]
    naive_entry = monodromy(spec, lam, rho_override=naive)[0][0]
    # scale of the ordering-sensitive cross term: B(2) C(1)
    table = _site_factor_table(spec, lam)
    cross = np.kron(table[:, :, 0, 1], table[:, :, 1, 0])
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
