"""Lattice operators, exchange relation, commutativity, continuum limit."""

import functools
import itertools
import json
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qnls import lattice as lat
from qnls.cli import main
from qnls.errors import CutoffTooSmall, RMatrixPole, SizeLimit
from qnls.transfer import theta

BOX_L = 2.0 * math.pi


# ----------------------------------------------------------------------
# Reference engines: the site operators as d x d matrices, one 2x2
# product per config pair and site, the monodromy from site operators
# applied on their tensor axes, the sector filtered out of all
# occupations and the one-particle block formed in full
# ----------------------------------------------------------------------

def annihilator(d, step):
    a = np.zeros((d, d), dtype=complex)
    for n in range(1, d):
        a[n - 1, n] = math.sqrt(n / step)
    return a


def creator(d, step):
    return annihilator(d, step).conj().T


def density_sqrt(d, step, c):
    """rho = sqrt(1 + (c Delta^2/4) psi^dag psi), diagonal in occupation."""
    diag = [math.sqrt(1.0 + c * step * n / 4.0) for n in range(d)]
    return np.diag(diag).astype(complex)


def site_l_blocks(spec, lam, rho=None):
    """The 2x2 auxiliary matrix of d x d site operators; ``rho`` is the
    diagonal that replaces the density square root."""
    d, step, c = spec.cutoff, spec.step, spec.c
    psi = annihilator(d, step)
    psid = creator(d, step)
    num = psid @ psi
    rho = density_sqrt(d, step, c) if rho is None \
        else np.diag(rho).astype(complex)
    eye = np.eye(d, dtype=complex)
    a = (1.0 - 0.5j * lam * step) * eye + 0.5 * c * step * step * num
    dd = (1.0 + 0.5j * lam * step) * eye + 0.5 * c * step * step * num
    b = -1j * step * math.sqrt(c) * (psid @ rho)
    cc = 1j * step * math.sqrt(c) * (rho @ psi)
    return [[a, b], [cc, dd]]


def table_blocks(spec, lam, rho=None):
    """The library's site-factor table as the same 2x2 block matrix."""
    table = lat._site_factor_table(spec, lam, rho)
    return [[table[:, :, r, s] for s in range(2)] for r in range(2)]


def reference_tau_sector_matrix(spec, lam, configs):
    """One ordered product of scalar 2x2 site matrices per config pair,
    each product formed as the sector engine forms it, column by column
    with broadcast products in the engine's operand order: a BLAS matmul
    of the tiny matrices rounds differently on some kernels."""
    step, c = spec.step, spec.c

    def site_matrix(np_, n):
        if np_ == n:
            diag = 1.0 - 0.5j * lam * step + 0.5 * c * step * n
            diag2 = 1.0 + 0.5j * lam * step + 0.5 * c * step * n
            return np.array([[diag, 0.0], [0.0, diag2]])
        if np_ == n + 1:
            val = -1j * step * math.sqrt(c) * math.sqrt((n + 1) / step) \
                * math.sqrt(1.0 + c * step * n / 4.0)
            return np.array([[0.0, val], [0.0, 0.0]])
        if np_ == n - 1:
            val = 1j * step * math.sqrt(c) \
                * math.sqrt(1.0 + c * step * (n - 1) / 4.0) \
                * math.sqrt(n / step)
            return np.array([[0.0, 0.0], [val, 0.0]])
        return None

    m = len(configs)
    out = np.zeros((m, m), dtype=complex)
    for i, cp in enumerate(configs):
        for j, cq in enumerate(configs):
            prod = np.eye(2, dtype=complex)
            for site in reversed(range(spec.sites)):
                ms = site_matrix(cp[site], cq[site])
                if ms is None:
                    break
                prod = prod[:, :1] * ms[:1, :] + prod[:, 1:] * ms[1:, :]
            else:
                out[i, j] = np.trace(prod)
    return out


def reference_apply(op, site, X, spec):
    """The d x d operator ``op`` at ``site`` times the full-space matrix X:
    op acts on the site's tensor axis of the rows, site 1 the fastest, as
    a broadcast matmul over the other axes (several times faster than the
    same contraction by einsum)."""
    d = spec.cutoff
    rows = X.reshape(d ** (spec.sites - site), d, -1)
    return (op @ rows).reshape(X.shape)


def reference_monodromy(spec, lam, rho_override=None):
    eye = np.eye(spec.cutoff ** spec.sites, dtype=complex)
    T = [[eye, np.zeros_like(eye)], [np.zeros_like(eye), eye]]
    blocks = site_l_blocks(spec, lam, rho=rho_override)
    for site in range(1, spec.sites + 1):
        T = [[reference_apply(blocks[r][0], site, T[0][s], spec)
              + reference_apply(blocks[r][1], site, T[1][s], spec)
              for s in range(2)] for r in range(2)]
    return T


def reference_left_multiply(L, T, r, c):
    """Entry (r, c) of L(site) T for a (k, k, d, d) site factor L, as the
    sum over q of the Kronecker products L[r, q] (x) T[q][c] in q order:
    every block multiplied, zero slice entries included."""
    if T is None:
        return L[r, c]
    out = np.kron(L[r, 0], T[0][c])
    for q in range(1, len(L)):
        out += np.kron(L[r, q], T[q][c])
    return out


def reference_site_products(L, sites):
    """All entries of the product of ``sites`` copies of L by
    ``reference_left_multiply``."""
    T = None
    for _ in range(sites):
        T = [[reference_left_multiply(L, T, r, c) for c in range(len(L))]
             for r in range(len(L))]
    return T


def reference_occupations(cutoff, sites):
    """Row i: the site occupations of basis state i of ``sites`` sites with
    occupations 0..cutoff-1, site 1 first (the fastest index)."""
    index = np.arange(cutoff ** sites)
    return index[:, None] // cutoff ** np.arange(sites) % cutoff


def reference_sector_norms(P, groups, shift):
    """Upper bound on the 2-norm of each matrix of a (k, m, m) stack P over
    states split into number sectors ``groups``, exact for a matrix that
    moves number by ``shift``: the largest block 2-norm, each block
    gathered by index for one SVD call for the whole stack and then zeroed,
    plus the Frobenius norm of what is left.  Zeroes the blocks of P."""
    worst = np.zeros(len(P))
    for n in range(max(0, -shift), len(groups) - max(0, shift)):
        index = (slice(None), groups[n + shift][:, None], groups[n])
        block = P[index]
        if block.size:
            worst = np.maximum(worst,
                               np.linalg.svd(block, compute_uv=False)[:, 0])
            P[index] = 0.0
    return worst + [np.linalg.norm(p) for p in P]


def reference_groups(cutoff, sites):
    """The number sectors of all states, as index groups in basis order."""
    return lat._sector_groups(reference_occupations(cutoff, sites).sum(axis=1))


def reference_pairing_defect(spec, lam):
    """||conj(A).T - D|| per number sector, the adjoint taken of the
    finished A."""
    (A, _), (_, D) = lat.monodromy(spec, lam)
    X = np.conjugate(A).T - D
    groups = reference_groups(spec.cutoff, spec.sites)
    return float(reference_sector_norms(X[None], groups, 0)[0])


def reference_last_site_blocks(spec, lam, adjoint):
    """The full-space checks' pass over the last site alone: blocks of
    A^dag - D (or of tau) over the last site's levels, each of dimension
    dim/d, written from the products below that site; at one site the
    whole operator."""
    L = lat._site_factor_table(spec, lam).transpose(2, 3, 0, 1)
    T = lat._site_products(L, spec.sites - 1)
    if T is None:
        whole = slice(None)
        if adjoint:
            yield whole, whole, np.conjugate(L[0, 0]).T - L[1, 1]
        else:
            yield whole, whole, L[0, 0] + L[1, 1]
        return
    reach = L[0].any(axis=0)
    n = len(T[0][0])
    A = np.empty((n, n), dtype=complex)
    X = np.empty((n, n), dtype=complex)
    a_column, d_column = [row[0] for row in T], [row[1] for row in T]
    for i, j in zip(*np.nonzero((reach.T if adjoint else reach)
                                | L[1].any(axis=0))):
        if not lat._write_block(L[0], a_column,
                                *((j, i) if adjoint else (i, j)), A):
            A[...] = 0.0
        if not lat._write_block(L[1], d_column, i, j, X):
            X[...] = 0.0
        if adjoint:
            np.subtract(np.conjugate(A, out=A).T, X, out=X)
        else:
            X += A
        yield slice(i * n, (i + 1) * n), slice(j * n, (j + 1) * n), X


def reference_last_site_conservation(spec, lam):
    """Number conservation over the blocks of the last site alone."""
    counts = reference_occupations(spec.cutoff, spec.sites).sum(axis=1)
    worst = 0.0
    for rows, cols, X in reference_last_site_blocks(spec, lam, False):
        X[counts[rows][:, None] == counts[cols]] = 0.0
        worst = np.maximum(worst, np.abs(X).max())
    return float(worst)


def reference_last_site_pairing(spec, lam):
    """The adjoint pairing over the blocks of the last site alone, each
    block's in-sector entries scattered into one buffer of the sector
    blocks and the squares of the rest summed by vdot."""
    counts = reference_occupations(spec.cutoff, spec.sites).sum(axis=1)
    groups = lat._sector_groups(counts)
    sizes = np.array([len(group) for group in groups])
    ends = np.cumsum(sizes * sizes)
    pos = np.empty_like(counts)
    for group in groups:
        pos[group] = np.arange(len(group))
    row_start = ends[counts] - sizes[counts] ** 2 + pos * sizes[counts]
    sectors = np.zeros(ends[-1], dtype=complex)
    off_sector = 0.0
    for rows, cols, X in reference_last_site_blocks(spec, float(lam), True):
        r, c = np.nonzero(counts[rows][:, None] == counts[cols])
        sectors[row_start[rows][r] + pos[cols][c]] = X[r, c]
        X[r, c] = 0.0
        off_sector += np.vdot(X, X).real
    worst = 0.0
    for end, m in zip(ends, sizes):
        block = sectors[end - m * m:end].reshape(m, m)
        worst = max(worst, np.linalg.svd(block, compute_uv=False)[0])
    return float(worst + math.sqrt(off_sector))


def ordered_product(table, row, col):
    """table[row[M-1], col[M-1]] ... table[row[0], col[0]], one k x k
    product per site, site M leftmost."""
    return functools.reduce(np.matmul, [table[row[s], col[s]]
                                        for s in reversed(range(len(row)))])


def assert_product_within_rounding(got, table, row, col):
    """got equals ``ordered_product(table, row, col)`` up to the rounding
    of two chains of M k x k products in any summation order: each entry
    within 2 M (k + 2) eps of the same product taken over |table|.  An
    entry that cancels may differ by far more than rtol * |entry|."""
    k = table.shape[-1]
    bound = 2 * len(row) * (k + 2) * np.finfo(float).eps \
        * ordered_product(np.abs(table), row, col)
    excess = np.abs(got - ordered_product(table, row, col)) - bound
    assert np.all(excess <= 0), excess.max()


def reference_occupation_configs(spec, total):
    """All cutoff^sites occupations, site M the fastest, filtered to one
    sector."""
    occ = reference_occupations(spec.cutoff, spec.sites)[:, ::-1]
    return occ[occ.sum(axis=1) == total]


def reference_one_particle_eigenvalue(spec, lam, momentum_index):
    """Rayleigh quotient and eigen-residual on the full one-particle
    block."""
    M = spec.sites
    block = lat.tau_sector_matrix(spec, lam, np.eye(M, dtype=np.intp))
    vec = np.exp(2j * np.pi * momentum_index * np.arange(M) / M)
    val = (vec.conj() @ block @ vec) / (vec.conj() @ vec)
    resid = np.linalg.norm(block @ vec - val * vec) / np.linalg.norm(vec)
    if resid > 1e-8 * max(1.0, abs(val)):
        raise ArithmeticError(f"Fourier mode failed to diagonalize: {resid}")
    return complex(val)


def reference_sector_block(op, spec, total):
    """Rows and columns of a full-space operator on the sector's
    occupation configs; site 1 is the rightmost (fastest) tensor index."""
    idx = [sum(n * spec.cutoff ** s for s, n in enumerate(cfg))
           for cfg in lat.occupation_configs(spec, total)]
    return op[np.ix_(idx, idx)]


def reference_rtt_residual(lam, mu, spec):
    """The exchange defect from full 4x4 block matrices of operators."""
    R = lat.r_matrix(lam, mu, spec.c)
    Tl, Tm = reference_monodromy(spec, lam), reference_monodromy(spec, mu)

    def tensor(T1, T2):
        return {(2 * a + b, 2 * cc + dd): T1[a][cc] @ T2[b][dd]
                for a in range(2) for b in range(2)
                for cc in range(2) for dd in range(2)}

    keep = [i for i in range(spec.cutoff ** spec.sites)
            if max(i // spec.cutoff ** s % spec.cutoff
                   for s in range(spec.sites)) <= spec.cutoff - 2]

    def defect(X, Y):
        worst = 0.0
        for r in range(4):
            for s in range(4):
                lhs = np.zeros_like(X[(0, 0)])
                rhs = np.zeros_like(X[(0, 0)])
                for t in range(4):
                    if R[r, t] != 0:
                        lhs = lhs + R[r, t] * X[(t, s)]
                for t in range(4):
                    if R[t, s] != 0:
                        rhs = rhs + Y[(r, t)] * R[t, s]
                if keep:
                    sub = (lhs - rhs)[np.ix_(keep, keep)]
                    worst = max(worst, float(np.linalg.norm(sub, 2)))
        return worst

    lm, ml = tensor(Tl, Tm), tensor(Tm, Tl)
    return defect(lm, ml), defect(ml, lm)


def reference_stacked_product(table, sites):
    """The product of a (d, d, k, k) site table over ``sites`` sites by the
    dense engine, between all d^M basis states, as one whole
    (d^M, d^M, k, k) stack: out[i, j, r, c] is entry (r, c) of the k x k
    product."""
    L = table.transpose(2, 3, 0, 1)
    T = lat._site_products(L, sites - 1)
    m, k = len(table) ** sites, len(L)
    out = np.zeros((m, m, k, k), dtype=complex)
    for r, c in itertools.product(range(k), repeat=2):
        out[:, :, r, c] = lat._left_multiply(L, T, r, c)
    return out


def whole_stack_rtt_residual(lam, mu, spec, plant=None):
    """Both exchange residuals from whole (m, m, 4, 4) stacks of both
    orderings over the m kept states: for each number shift, the entries
    (r, s) of R X - Y R that make it, written into one stack and measured
    per sector (``reference_sector_norms``).  ``plant`` (i, j, value) sets
    entry (0, 0) of the lam-mu stack between kept states i and j."""
    R = lat.r_matrix(lam, mu, spec.c)
    kept = spec.cutoff - 1
    tl = lat._site_factor_table(spec, lam)
    tm = lat._site_factor_table(spec, mu)
    lm = reference_stacked_product(lat._pair_table(tl, tm)[:kept, :kept],
                                   spec.sites)
    ml = reference_stacked_product(lat._pair_table(tm, tl)[:kept, :kept],
                                   spec.sites)
    if plant is not None:
        lm[plant[0], plant[1], 0, 0] = plant[2]
    groups = reference_groups(kept, spec.sites)

    def defect(X, Y):
        worst = 0.0
        for shift in range(-2, 3):
            pairs = [(r, s) for r in range(4) for s in range(4)
                     if s.bit_count() - r.bit_count() == shift]
            stack = np.empty((len(pairs),) + X.shape[:2], dtype=complex)
            for entry, (r, s) in zip(stack, pairs):
                np.subtract(X[:, :, :, s] @ R[r], Y[:, :, r, :] @ R[:, s],
                            out=entry)
            worst = max(worst, reference_sector_norms(stack, groups,
                                                      shift).max())
        return float(worst)

    return defect(lm, ml), defect(ml, lm)


def streamed_stacks(tables, sites):
    """The blocks of every entry by ``lat._product_blocks`` put together
    into one whole (d^M, d^M, k, k) stack per table."""
    m, k = len(tables[0]) ** sites, tables[0].shape[-1]
    every = [list(itertools.product(range(k), repeat=2))] * len(tables)
    out = np.zeros((len(tables), m, m, k * k), dtype=complex)
    for rows, cols, X in lat._product_blocks(tables, sites, every):
        out[:, rows, cols] = X
    return out.reshape(len(tables), m, m, k, k)


def conservation_bytes(spec):
    """The bytes ``number_conservation_defect`` counts (``_stream_bytes``)."""
    return lat._stream_bytes(spec.cutoff, spec.sites, lat._DIAGONAL)


def pairing_bytes(spec):
    """The bytes ``hermiticity_pairing_defect`` counts."""
    return lat._stream_bytes(spec.cutoff, spec.sites, lat._DIAGONAL,
                             sectors={0: 1})


def exchange_bytes(spec, pairs=1):
    """The bytes ``rtt_residual`` counts on a batch of ``pairs`` pairs:
    every entry of both orderings' pair tables, the sector blocks of each
    entry of R X - Y R, 8 blocks and the pair and site tables per pair."""
    every = [list(itertools.product(range(4), repeat=2))] * (2 * pairs)
    operators = {shift: 2 * len(entries) * pairs
                 for shift, entries in lat._EXCHANGE_ENTRIES.items()}
    return lat._stream_bytes(spec.cutoff - 1, spec.sites, every, 2,
                             operators, 8 * pairs,
                             (2 * 16 + 2 * 4) * pairs * spec.cutoff ** 2)


spectral = st.builds(complex, st.floats(-2, 2), st.floats(-1, 1))


# (M, d) with d^M <= 4096 whose pass over the last site alone, the
# reference of the nested pass, holds products of at most 512 states
STREAM_SIZES = [(m, d) for d in range(1, 65) for m in range(1, 13)
                if d ** m <= 4096 and d ** (m - 1) <= 512 and (d > 1 or m <= 3)]


@st.composite
def sector_cases(draw):
    """Sites 1..6, sectors 0..3, cutoffs from 1 up to N+2."""
    sites = draw(st.integers(1, 6))
    sector = draw(st.integers(0, 3))
    cutoff = draw(st.integers(1, sector + 2))
    spec = lat.LatticeSpec(sites, cutoff, draw(st.floats(0.05, 1.0)),
                           draw(st.floats(0.1, 3.0)))
    return spec, draw(spectral), sector


@st.composite
def monodromy_cases(draw):
    """Sites 1..6 at full space dimension <= 256, optional rho diagonal."""
    sites = draw(st.integers(1, 6))
    max_cutoff = min(5, int(round(256 ** (1.0 / sites))))
    cutoff = draw(st.integers(1, max_cutoff))
    spec = lat.LatticeSpec(sites, cutoff, draw(st.floats(0.05, 1.0)),
                           draw(st.floats(0.1, 3.0)))
    rho = None
    if draw(st.booleans()):
        rho = draw(st.lists(st.floats(0.5, 2.0), min_size=cutoff,
                            max_size=cutoff))
    return spec, draw(spectral), rho


@st.composite
def sparse_tables(draw):
    """A finite (d, d, k, k) site table, k = 2 or 4, with a random zero
    pattern over all level pairs, one entry at n' = n + 2 whenever d >= 3,
    and 1..4 sites (full dimension d^M <= 81)."""
    k = draw(st.sampled_from([2, 4]))
    d = draw(st.integers(1, 4))
    sites = draw(st.integers(1, 4 if d <= 3 else 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    table = rng.standard_normal((d, d, k, k, 2)) @ [1, 1j]
    table *= rng.random((d, d, k, k)) < draw(st.floats(0.0, 1.0))
    if d >= 3:
        table[2, 0, 0, 0] = 0.5 - 0.25j
    return table, sites


@st.composite
def sector_totals(draw):
    """Cutoffs 1..5, sites 1..8 and totals -1..(d-1)M+1, so both empty
    sectors at the ends are drawn."""
    cutoff = draw(st.integers(1, 5))
    sites = draw(st.integers(1, 8))
    return cutoff, sites, draw(st.integers(-1, (cutoff - 1) * sites + 1))


@st.composite
def shifted_matrices(draw):
    """A square matrix that moves particle number by ``shift`` (-2..2) over
    up to 24 states with numbers 0..4 in any order, so some sectors are
    empty; each block has a random rank, zero included, and a scale down
    to 1e-15."""
    counts = np.array(draw(st.lists(st.integers(0, 4), min_size=1,
                                    max_size=24)))
    shift = draw(st.integers(-2, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = np.zeros((len(counts), len(counts)), dtype=complex)
    for n in range(5):
        rows = np.flatnonzero(counts == n + shift)
        cols = np.flatnonzero(counts == n)
        rank = draw(st.integers(0, min(len(rows), len(cols))))
        scale = draw(st.sampled_from([1.0, 1e-15, 1e3]))
        left = rng.standard_normal((len(rows), rank, 2)) @ [1, 1j]
        right = rng.standard_normal((rank, len(cols), 2)) @ [1, 1j]
        X[np.ix_(rows, cols)] = scale * (left @ right)
    return X, counts, shift


class TestSiteOperators:
    def test_commutator_below_cutoff(self):
        d, step = 5, 0.3
        a = annihilator(d, step)
        comm = a @ a.conj().T - a.conj().T @ a
        # canonical value 1/step on occupations <= d-2
        assert np.allclose(np.diag(comm)[: d - 1], 1.0 / step)

    def test_density_sqrt_diagonal(self):
        d, step, c = 4, 0.25, 1.5
        rho = density_sqrt(d, step, c)
        for n in range(d):
            assert rho[n, n] == pytest.approx(math.sqrt(1 + c * step * n / 4))

    def test_naive_ordered_sqrt_differs_from_level_one(self):
        d, step, c = 4, 0.25, 1.5
        rho = density_sqrt(d, step, c)
        naive = lat.density_sqrt_naive_ordered(d, step, c)
        assert naive[0] == pytest.approx(1.0)
        assert abs(rho[1, 1] - naive[1]) > 1e-6
        # the deviation is second order in (c step)
        assert abs(rho[1, 1] - naive[1]) == pytest.approx(
            (c * step / 4) ** 2 / 8, rel=0.1)


class TestLOperator:
    @given(monodromy_cases())
    @settings(max_examples=50, deadline=None)
    def test_table_slices_match_operator_blocks(self, case):
        spec, lam, rho = case
        table = table_blocks(spec, lam, rho)
        blocks = site_l_blocks(spec, lam, rho)
        for r in range(2):
            for s in range(2):
                np.testing.assert_allclose(table[r][s], blocks[r][s],
                                           rtol=1e-15, atol=0)

    def test_vacuum_only_cutoff_is_diagonal(self):
        spec = lat.LatticeSpec(1, 1, 0.4, 1.0)
        blocks = table_blocks(spec, 0.9)
        assert blocks[0][0][0, 0] == pytest.approx(1 - 0.5j * 0.9 * 0.4)
        assert blocks[1][1][0, 0] == pytest.approx(1 + 0.5j * 0.9 * 0.4)
        assert np.all(blocks[0][1] == 0) and np.all(blocks[1][0] == 0)

    def test_diagonal_entry_on_occupation_states(self):
        spec = lat.LatticeSpec(1, 4, 0.3, 2.0)
        blocks = table_blocks(spec, 0.7)
        for n in range(4):
            expected = 1 - 0.5j * 0.7 * 0.3 + 2.0 * 0.3 * n / 2
            assert blocks[0][0][n, n] == pytest.approx(expected)

    def test_continuum_linearization(self):
        # diagonal entries are exactly affine in the step; the off-diagonal
        # deviate from the unit-density model at order step^(3/2) in norm
        lam, c, d = 0.7, 1.5, 4
        norms = []
        steps = lat.ORDERING_STEPS
        for step in steps:
            spec = lat.LatticeSpec(1, d, step, c)
            blocks = table_blocks(spec, lam)
            num = creator(d, step) @ annihilator(d, step)
            affine = (1 - 0.5j * lam * step) * np.eye(d) \
                + 0.5 * c * step * step * num
            assert np.allclose(blocks[0][0], affine, atol=1e-14)
            b_lin = -1j * step * math.sqrt(c) * creator(d, step)
            norms.append(np.linalg.norm(blocks[0][1] - b_lin, 2))
        fit = np.polyfit(np.log(steps), np.log(norms), 1)[0]
        assert fit == pytest.approx(1.5, abs=0.1)
        scale = [nv / s ** 1.5 for nv, s in zip(norms, steps)]
        assert max(scale) / min(scale) < 1.3  # stable fitted constant


class TestMonodromy:
    def test_single_site_is_l(self):
        spec = lat.LatticeSpec(1, 3, 0.3, 1.0)
        T = lat.monodromy(spec, 0.8)
        blocks = site_l_blocks(spec, 0.8)
        for r in range(2):
            for s in range(2):
                assert np.allclose(T[r][s], blocks[r][s])

    def test_two_site_vacuum_transfer(self):
        spec = lat.LatticeSpec(2, 2, 0.4, 1.0)
        lam = 0.9
        tau = lat.transfer_operator(spec, lam)
        vac = tau[0, 0]
        expected = (1 - 0.5j * lam * 0.4) ** 2 + (1 + 0.5j * lam * 0.4) ** 2
        assert vac == pytest.approx(expected)

    def test_number_conservation(self):
        spec = lat.LatticeSpec(3, 3, 0.35, 1.2)
        for lam in (0.3, 0.7 - 0.2j, -1.1 + 0.4j):
            assert lat.number_conservation_defect(spec, lam) == 0.0

    def test_sector_contraction_matches_full_space(self):
        spec = lat.LatticeSpec(3, 4, 0.25, 1.0)
        lam = 0.6 - 0.2j
        tau = lat.transfer_operator(spec, lam)
        full = reference_sector_block(tau, spec, 2)
        fast = lat.tau_sector_matrix(spec, lam, lat.occupation_configs(spec, 2))
        assert np.max(np.abs(full - fast)) < 1e-13

    @given(st.integers(1, 3), st.integers(2, 4), st.floats(1e-300, 1e3),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_number_conservation_shows_planted_entry(self, sites, cutoff,
                                                     size, data):
        # the entry is planted into the block of tau that the streamed
        # pass reads; the blocks it never reads are those no slice
        # reaches, zero by construction
        spec = lat.LatticeSpec(sites, cutoff, 0.35, 1.2)
        lam = 0.7 - 0.2j
        counts = lat._particle_counts(cutoff, sites)
        index = np.arange(len(counts))
        blocks = lat._product_blocks
        table = lat._site_factor_table(spec, lam)
        read = np.zeros((len(counts),) * 2, dtype=bool)
        for rows, cols, _ in blocks([table, table], sites, lat._DIAGONAL):
            read[np.ix_(index[rows], index[cols])] = True
        off = np.argwhere(read & (counts[:, None] != counts[None, :]))
        i, j = off[data.draw(st.integers(0, len(off) - 1))]

        def planted(*args):
            # into the block of A, whose block of D is zero off the sectors
            for rows, cols, X in blocks(*args):
                at = np.flatnonzero(index[rows] == i), \
                    np.flatnonzero(index[cols] == j)
                X[0][at[0], at[1], 0] = -1j * size
                yield rows, cols, X

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lat, "_product_blocks", planted)
            assert lat.number_conservation_defect(spec, lam) == size

    def test_number_conservation_with_one_sector(self):
        # cutoff 1: the vacuum is the only state and the only sector
        spec = lat.LatticeSpec(3, 1, 0.35, 1.2)
        assert lat.number_conservation_defect(spec, 0.7) == 0.0

    def test_adjoint_pairing_at_real_parameter(self):
        spec = lat.LatticeSpec(3, 4, 0.3, 1.0)
        assert lat.hermiticity_pairing_defect(spec, 1.3) < 1e-12

    def test_size_guard(self):
        with pytest.raises(SizeLimit):
            lat.monodromy(lat.LatticeSpec(10, 5, 0.1, 1.0), 0.5)

    @pytest.mark.parametrize("step, c", [(math.nan, 1.0), (math.inf, 1.0),
                                         (0.3, math.nan), (0.3, math.inf)])
    def test_non_finite_spec_rejected(self, step, c):
        with pytest.raises(ValueError, match="finite"):
            lat.LatticeSpec(2, 4, step, c)

    @given(sector_cases())
    @settings(max_examples=60, deadline=None)
    def test_sector_engine_matches_pair_loop(self, case):
        spec, lam, sector = case
        configs = lat.occupation_configs(spec, sector)
        np.testing.assert_array_equal(
            lat.tau_sector_matrix(spec, lam, configs),
            reference_tau_sector_matrix(spec, lam, configs))

    @given(st.integers(1, 5), st.integers(1, 4), st.integers(1, 12),
           spectral, spectral, st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    # entry [0, 0] cancels to 2e-14 of its size between the two orders
    @example(5, 2, 10, 1.96875 + 0.125j, -1.625 + 0.125j, 167)
    def test_four_by_four_contraction_matches_pair_products(
            self, sites, cutoff, rows, lam, mu, seed):
        # the exchange relation's (d, d, 4, 4) pair table, at random
        # occupations and on all kept ones, against one ordered product
        # per config pair
        spec = lat.LatticeSpec(sites, cutoff, 0.3, 1.3)
        table = lat._pair_table(lat._site_factor_table(spec, lam),
                                lat._site_factor_table(spec, mu))
        occ = np.random.default_rng(seed).integers(0, cutoff, (rows, sites))
        got = lat._contract_sites(table, occ)
        for i in range(rows):
            for j in range(rows):
                assert_product_within_rounding(got[i, j], table, occ[i],
                                               occ[j])
        # the streamed blocks of the exchange relation, on all kept states
        if sites <= 4:
            kept = reference_occupations(cutoff - 1, sites)
            stacked, = streamed_stacks([table[:cutoff - 1, :cutoff - 1]],
                                       sites)
            for i, j in itertools.product(range(len(kept)), repeat=2):
                assert_product_within_rounding(stacked[i, j], table, kept[i],
                                               kept[j])

    def test_sector_engine_empty_config_list(self):
        out = lat.tau_sector_matrix(lat.LatticeSpec(3, 4, 0.3, 1.0), 0.7, [])
        assert out.shape == (0, 0)

    def test_sector_engine_rejects_occupation_above_cutoff(self):
        with pytest.raises(ValueError):
            lat.tau_sector_matrix(lat.LatticeSpec(2, 2, 0.3, 1.0), 0.7,
                                  [(2, 0), (1, 1)])

    @pytest.mark.parametrize("sites", [1, 2, 3])
    def test_monodromy_blocks_are_private_to_the_call(self, sites):
        # at one site the blocks are slices of the call's own site table;
        # writing into them must not reach another block or the next call
        spec = lat.LatticeSpec(sites, 3, 0.3, 1.0)
        first = [block for row in lat.monodromy(spec, 0.7 - 0.2j)
                 for block in row]
        for a, b in itertools.combinations(first, 2):
            assert not np.shares_memory(a, b)
        for block in first:
            block[...] = 99.0
        again = lat.monodromy(spec, 0.7 - 0.2j)
        dense = reference_monodromy(spec, 0.7 - 0.2j)
        for r in range(2):
            for s in range(2):
                np.testing.assert_allclose(again[r][s], dense[r][s],
                                           rtol=1e-13)

    @given(monodromy_cases())
    @settings(max_examples=50, deadline=None)
    def test_contracted_monodromy_matches_dense(self, case):
        spec, lam, rho = case
        fast = lat.monodromy(spec, lam, rho_override=rho)
        dense = reference_monodromy(spec, lam, rho_override=rho)
        for r in range(2):
            for s in range(2):
                np.testing.assert_allclose(fast[r][s], dense[r][s], rtol=1e-13)

    @given(sparse_tables(), st.sampled_from([64, 4, 1]))
    @settings(max_examples=100, deadline=None)
    def test_engine_matches_kronecker_sums(self, case, states):
        # the zero pattern is read from the table, off the band included;
        # a smaller bound on the states below the streamed sites nests the
        # streamed blocks over up to M - 1 sites.  The adjoint table's
        # product is the adjoint of the table's, entry by entry, which the
        # adjoint pairing reads for A^dag
        table, sites = case
        L = table.transpose(2, 3, 0, 1)
        want = reference_site_products(L, sites)
        got = lat._site_products(L, sites)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lat, "_STREAM_STATES", states)
            stacked, adjoint = streamed_stacks(
                [table, np.conjugate(table.transpose(1, 0, 2, 3))], sites)
        for r, c in itertools.product(range(len(L)), repeat=2):
            np.testing.assert_array_equal(got[r][c], want[r][c])
            np.testing.assert_array_equal(stacked[:, :, r, c], want[r][c])
        np.testing.assert_array_equal(adjoint[:, :, 0, 0],
                                      np.conjugate(want[0][0]).T)

    @given(monodromy_cases())
    @settings(max_examples=50, deadline=None)
    def test_monodromy_is_kronecker_sums_bit_for_bit(self, case):
        spec, lam, rho = case
        L = lat._site_factor_table(spec, lam, rho).transpose(2, 3, 0, 1)
        want = reference_site_products(L, spec.sites)
        got = lat.monodromy(spec, lam, rho_override=rho)
        for r, c in itertools.product(range(2), repeat=2):
            np.testing.assert_array_equal(got[r][c], want[r][c])
        # the adjoint pairing forms A^dag from the adjoints below the last
        # site: the same float as the adjoint of the finished A
        assert lat.hermiticity_pairing_defect(spec, lam.real) \
            == reference_pairing_defect(spec, lam.real)

    @pytest.mark.parametrize("sites, cutoff, step, c, lam", [
        (5, 4, 0.3, 1.0, 0.7), (4, 5, 0.35, 1.2, -1.3),
        (3, 6, 0.3, 1.0, 1.9), (2, 12, 0.25, 0.8, -0.4),
        # the lattice-sweep benchmark's 4^5 inputs at seeds 2024 and 7
        (5, 4, 0.3, 1.1641314398892726, 0.472220876675872),
        (5, 4, 0.3, 0.809052302021444, 1.8703670946984814)])
    def test_pairing_is_adjoint_of_finished_a_past_sampled_sizes(
            self, sites, cutoff, step, c, lam):
        # the sampled cases stop at dimension 256; the blocks over the
        # last site must give the float of the full-space difference
        spec = lat.LatticeSpec(sites, cutoff, step, c)
        assert lat.hermiticity_pairing_defect(spec, lam) \
            == reference_pairing_defect(spec, lam)

    @pytest.mark.parametrize("sites", [2, 3])
    @pytest.mark.parametrize("r, s", itertools.product(range(2), repeat=2))
    def test_pairing_shows_entry_off_the_band(self, r, s, sites):
        # an entry at n' = n + 2 puts entries of A^dag - D off the sector
        # blocks; the Frobenius sum of those entries must stay in the
        # defect, which then bounds the full 2-norm
        spec = lat.LatticeSpec(sites, 4, 0.35, 1.2)
        clean = lat._site_factor_table

        def planted(*args):
            table = clean(*args)
            table[2, 0, r, s] = 0.5
            return table

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lat, "_site_factor_table", planted)
            got = lat.hermiticity_pairing_defect(spec, 0.7)
            want = reference_pairing_defect(spec, 0.7)
            (A, _), (_, D) = lat.monodromy(spec, 0.7)
        assert got > lat.IDENTITY_TOL
        # the sum off the sector blocks may run in another order
        assert got == pytest.approx(want, rel=1e-15, abs=0)
        assert got >= np.linalg.norm(np.conjugate(A).T - D, 2) * (1 - 1e-12)
        assert lat.hermiticity_pairing_defect(spec, 0.7) <= lat.IDENTITY_TOL

    @pytest.mark.parametrize("sites", [2, 3])
    @pytest.mark.parametrize("r, s", itertools.product(range(2), repeat=2))
    def test_number_conservation_shows_entry_off_the_band(self, r, s, sites):
        # an entry at n' = n + 2 moves number in tau; an engine that took
        # the slices to be tridiagonal would drop it at every site above
        # the first, so tau is also held to the Kronecker sums
        spec = lat.LatticeSpec(sites, 4, 0.35, 1.2)
        lam = 0.7 - 0.2j
        clean = lat._site_factor_table

        def planted(*args):
            table = clean(*args)
            table[2, 0, r, s] = 0.5
            return table

        T = reference_site_products(planted(spec, lam).transpose(2, 3, 0, 1),
                                    sites)
        tau = T[0][0] + T[1][1]
        counts = lat._particle_counts(4, sites)
        want = np.abs(tau[counts[:, None] != counts[None, :]]).max()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lat, "_site_factor_table", planted)
            got = lat.number_conservation_defect(spec, lam)
            np.testing.assert_array_equal(lat.transfer_operator(spec, lam),
                                          tau)
        assert got > 0.0 and got == want
        assert lat.number_conservation_defect(spec, lam) == 0.0

    @given(sector_totals())
    @settings(max_examples=100, deadline=None)
    @example((1, 3, 0))        # total 0, the only sector at cutoff 1
    @example((1, 2, 1))        # empty: above (d - 1) M
    @example((4, 8, -1))       # empty: negative total
    @example((5, 8, 33))       # empty: (d - 1) M + 1
    @example((4, 8, 2))        # the 36 configs of a commutator check
    def test_sector_configs_match_filtered_occupations(self, case):
        cutoff, sites, total = case
        spec = lat.LatticeSpec(sites, cutoff, 0.3, 1.0)
        got = lat.occupation_configs(spec, total)
        want = reference_occupation_configs(spec, total)
        assert np.array_equal(got, want) and got.shape == want.shape
        assert got.dtype == want.dtype
        assert lat.sector_size(spec, total) == len(want)


def reference_sector_norm(X, counts, shift):
    """The sector norm over a copy of X with its states sorted by number,
    each sector a contiguous slice: the layout the index groups replaced."""
    order = np.argsort(counts, kind="stable")
    P = X[np.ix_(order, order)][None]
    edges = np.searchsorted(counts[order],
                            np.arange(counts.max(initial=0) + 2))
    worst = np.zeros(1)
    for n in range(max(0, -shift), len(edges) - 1 - max(0, shift)):
        block = P[:, edges[n + shift]:edges[n + shift + 1],
                  edges[n]:edges[n + 1]]
        if block.size:
            worst = np.maximum(worst,
                               np.linalg.svd(block, compute_uv=False)[:, 0])
            block[...] = 0.0
    return float((worst + [np.linalg.norm(p) for p in P])[0])


def sector_norm(X, counts, shift):
    """The streamed checks' measure of X taken as one block: its sector
    blocks moved into a ``_SectorBuffer``, their largest 2-norm plus the
    square root of the sum of squares left."""
    sectors = lat._SectorBuffer(counts, {shift: 1})
    whole = slice(None)
    off = sectors.move(X.copy(), *sectors.place(whole, whole, shift),
                       shift, 0)
    return float(sectors.norms(shift)[0] + math.sqrt(off))


class TestNestedPass:
    """The full-space checks nest over their last k sites once the
    products below the last site pass _STREAM_STATES states; the pass over
    the last site alone is the reference."""

    def test_sizes_reach_depth_three(self):
        depths = {lat._stream_depth(d, m) for m, d in STREAM_SIZES}
        assert {1, 2, 3} <= depths
        # the suite's sizes and the sweep's conservation keep the last site
        assert [lat._stream_depth(d, m) for m, d in
                ((3, 4), (3, 3), (4, 4), (5, 4))] == [1, 1, 1, 2]

    @given(st.sampled_from(STREAM_SIZES), st.floats(-2, 2), spectral,
           st.floats(0.05, 1.0), st.floats(0.1, 3.0))
    @settings(max_examples=25, deadline=None)
    @example((5, 4), 0.7, 0.7 - 0.2j, 0.3, 1.0)     # depth 2, the sweep's
    @example((6, 3), -1.3, 0.4 + 0.3j, 0.35, 1.2)   # depth 3
    @example((9, 2), 0.2, -1.1 + 0.5j, 0.25, 0.8)   # depth 3
    def test_checks_match_last_site_pass(self, size, lam, lam_c, step, c):
        sites, cutoff = size
        spec = lat.LatticeSpec(sites, cutoff, step, c)
        assert lat.number_conservation_defect(spec, lam_c) \
            == reference_last_site_conservation(spec, lam_c) == 0.0
        assert lat.hermiticity_pairing_defect(spec, lam) \
            == reference_last_site_pairing(spec, lam)

    @given(st.sampled_from([(m, d) for m, d in STREAM_SIZES
                            if d >= 3 and m >= 2]),
           st.sampled_from(list(itertools.product(range(2), repeat=2))),
           st.floats(-2, 2), spectral)
    @settings(max_examples=15, deadline=None)
    @example((5, 4), (0, 1), 0.7, 0.7 - 0.2j)
    @example((6, 3), (1, 0), -1.3, 0.4 + 0.3j)
    def test_checks_match_last_site_pass_off_the_band(self, size, rs, lam,
                                                       lam_c):
        # an entry at n' = n + 2 puts entries off the sector blocks: the
        # largest of them is the same float, and their Frobenius sum runs
        # over other blocks in another order
        sites, cutoff = size
        spec = lat.LatticeSpec(sites, cutoff, 0.35, 1.2)
        clean = lat._site_factor_table

        def planted(*args):
            table = clean(*args)
            table[(2, 0) + rs] = 0.5
            return table

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lat, "_site_factor_table", planted)
            conservation = lat.number_conservation_defect(spec, lam_c)
            assert conservation == reference_last_site_conservation(spec, lam_c)
            pairing = lat.hermiticity_pairing_defect(spec, lam)
            want = reference_last_site_pairing(spec, lam)
        assert conservation > 0.0 and pairing > lat.IDENTITY_TOL
        assert pairing == pytest.approx(want, rel=1e-15, abs=0)


class TestSectorNorm:
    @given(shifted_matrices())
    @settings(max_examples=200, deadline=None)
    def test_equals_svd_norm_on_number_shifting_matrices(self, case):
        X, counts, shift = case
        got = sector_norm(X, counts, shift)
        assert got == pytest.approx(np.linalg.norm(X, 2), rel=1e-12, abs=0)
        # the same blocks as the sorted layout, and exact zeros off them
        assert got == reference_sector_norm(X, counts, shift)

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=24),
           st.integers(-2, 2), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_bounds_svd_norm_on_any_matrix(self, counts, shift, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((len(counts), len(counts), 2)) @ [1, 1j]
        counts = np.array(counts)
        got = sector_norm(X, counts, shift)
        assert got >= np.linalg.norm(X, 2) * (1 - 1e-12)
        # the Frobenius sum off the blocks may run in another order
        assert got == pytest.approx(reference_sector_norm(X, counts, shift),
                                    rel=1e-15, abs=0)

    @given(shifted_matrices(), st.floats(1e-15, 1e3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_planted_off_sector_entry_shows(self, case, size, data):
        X, counts, shift = case
        off = np.argwhere(counts[:, None] != counts[None, :] + shift)
        assume(len(off))
        i, j = off[data.draw(st.integers(0, len(off) - 1))]
        clean = sector_norm(X, counts, shift)
        X[i, j] = 1j * size
        planted = sector_norm(X, counts, shift)
        assert planted == pytest.approx(clean + size, rel=1e-12, abs=0)
        assert planted - clean >= 0.5 * size or size < 1e-12 * clean

    def test_groups_keep_basis_order(self):
        groups = lat._sector_groups(np.array([2, 0, 1, 0, 2, 2]))
        assert [g.tolist() for g in groups] == [[1, 3], [2], [0, 4, 5]]


class TestDenseBudget:
    def test_rejects_by_bytes_before_allocating(self):
        # 4^8: 3^8 kept states for the exchange relation, whose sector
        # blocks alone would take 2.4 GiB, and 5.7 GiB of sector blocks
        # for the adjoint pairing; number conservation holds blocks of at
        # most 64 states and its bytes are refused only at 4^14, where the
        # particle numbers of the states take 2 GiB (its block entries are
        # refused from 4^9: test_streamed_work_refused_before_any_block)
        spec = lat.LatticeSpec(8, 4, 0.3, 1.0)
        wide = lat.LatticeSpec(14, 4, 0.3, 1.0)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimit) as err:
                lat.rtt_residual(0.7, 1.3, spec)
            with pytest.raises(SizeLimit):
                lat.monodromy(spec, 0.7)
            with pytest.raises(SizeLimit):
                lat.transfer_operator(spec, 0.7)
            with pytest.raises(SizeLimit) as pairing_err:
                lat.hermiticity_pairing_defect(spec, 0.7)
            with pytest.raises(SizeLimit) as conservation_err:
                lat.number_conservation_defect(wide, 0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert str(exchange_bytes(spec)) in str(err.value)
        assert str(lat.DENSE_BUDGET_BYTES) in str(err.value)
        # the streamed checks are refused by their own counts, not the
        # monodromy's
        assert str(pairing_bytes(spec)) in str(pairing_err.value)
        assert str(conservation_bytes(wide)) \
            in str(conservation_err.value)
        assert conservation_bytes(spec) <= lat.DENSE_BUDGET_BYTES

    def test_streamed_work_refused_before_any_block(self):
        # 4^13 fits the byte budget (blocks of 64 states, 512 MiB of
        # particle numbers) but would write 8e13 block entries
        spec = lat.LatticeSpec(13, 4, 0.3, 1.0)
        assert conservation_bytes(spec) <= lat.DENSE_BUDGET_BYTES
        calls = []
        tracemalloc.start()
        try:
            with mock.patch.object(lat, "_write_nested",
                                   side_effect=calls.append), \
                    pytest.raises(SizeLimit) as err:
                lat.number_conservation_defect(spec, 0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20 and not calls
        assert str(lat._stream_entries(4, 13, lat._DIAGONAL)) \
            in str(err.value)
        assert str(lat._STREAM_ENTRY_BUDGET) in str(err.value)

    @pytest.mark.parametrize("sites, cutoff", [(3, 4), (4, 4), (5, 4),
                                               (3, 3), (6, 2), (1, 4)])
    def test_entry_count_bounds_the_pass(self, sites, cutoff):
        # the suite's 4^3 and the sweep's 4^4 and 4^5 fit the budget; the
        # count is at least the entries the pass writes, and past one
        # site (the whole d x d operator) those of A and D in every
        # reachable block
        spec = lat.LatticeSpec(sites, cutoff, 0.3, 1.0)
        entries = lat._stream_entries(cutoff, sites, lat._DIAGONAL)
        table = lat._site_factor_table(spec, 0.7)
        adjoint = np.conjugate(table.transpose(1, 0, 2, 3))
        for tables in ([table, table], [adjoint, table]):
            written = sum(X.size for _, _, X in
                          lat._product_blocks(tables, sites, lat._DIAGONAL))
            assert written <= entries <= lat._STREAM_ENTRY_BUDGET
        if sites > 1:
            L = table.transpose(2, 3, 0, 1)
            depth = lat._stream_depth(cutoff, sites)
            n = cutoff ** (sites - depth)
            reach = L.any(axis=(0, 1))
            assert entries == 2 * n * n * len(list(lat._level_blocks(
                reach | reach.T, depth, n)))
        # the exchange relation's pair tables over the kept levels, which
        # reach |n' - n| <= 2
        kept = cutoff - 1
        pair = lat._pair_table(table, lat._site_factor_table(spec, -0.4))
        every = [list(itertools.product(range(4), repeat=2))] * 2
        written = sum(X.size for _, _, X in lat._product_blocks(
            [pair[:kept, :kept]] * 2, sites, every))
        assert written <= lat._stream_entries(kept, sites, every, 2) \
            <= lat._STREAM_ENTRY_BUDGET

    def test_cli_rtt_rejected(self, capsys):
        code = main(["lattice", "rtt", "--sites", "8", "--cutoff", "4",
                     "--step", "0.3", "--coupling", "1.0"])
        assert code == 1
        assert "bytes" in capsys.readouterr().err

    def test_sector_rejected_before_allocating(self, capsys):
        spec = lat.LatticeSpec(72, 4, 0.3, 1.0)   # 2628 configs in sector 2
        need = lat.sector_bytes(2628)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimit) as err:
                lat.tau_commutator_norm(0.7, 1.3, spec, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert str(need) in str(err.value)
        assert str(lat.DENSE_BUDGET_BYTES) in str(err.value)
        code = main(["lattice", "commute", "--sites", "72", "--cutoff", "4",
                     "--step", "0.3", "--coupling", "1.0", "--sector", "2"])
        assert code == 1
        assert "bytes" in capsys.readouterr().err

    def test_suite_and_sweep_sizes_fit(self):
        # the suite goes up to 3 sites at cutoff 4; the benchmark sweep
        # runs the exchange relation and number conservation at 4^4 and
        # the adjoint pairing at 4^5; the exchange relation fits up to 7
        # sites at cutoff 4 and 11 at cutoff 3, the adjoint pairing up to
        # 7 sites at cutoff 4, number conservation up to 13 (by bytes; its
        # entries up to 8), and monodromy up to 5
        def spec(m, d):
            return lat.LatticeSpec(m, d, 0.3, 1.0)

        rtt = [exchange_bytes(spec(m, d))
               for m, d in ((4, 4), (7, 4), (11, 3))]
        mono = lat.dense_bytes(spec(5, 4), lat.MONODROMY_BLOCKS)
        conservation = [conservation_bytes(spec(m, 4)) for m in (4, 13)]
        pairing = [pairing_bytes(spec(m, 4)) for m in (5, 7)]
        # the commutator sectors: the suite's reach M <= 4 and N <= 3, and
        # the sweep's at 6 to 8 sites, N <= 3, d = N + 2 (at most 56 configs)
        sectors = [lat.sector_bytes(lat.sector_size(spec(m, n + 2), n))
                   for m, n in ((4, 3), (8, 2), (6, 3))]
        assert max(*rtt, *conservation, mono, *pairing, *sectors) \
            <= lat.DENSE_BUDGET_BYTES
        # one site more is refused
        assert min(exchange_bytes(spec(8, 4)),
                   exchange_bytes(spec(12, 3)),
                   pairing_bytes(spec(8, 4)),
                   conservation_bytes(spec(14, 4)),
                   lat.dense_bytes(spec(6, 4), lat.MONODROMY_BLOCKS)) \
            > lat.DENSE_BUDGET_BYTES

    @pytest.mark.parametrize("sites, sector", [(16, 2), (24, 2), (12, 3)])
    def test_sector_count_bounds_peak_memory(self, sites, sector):
        spec = lat.LatticeSpec(sites, sector + 2, 0.3, 1.0)
        need = lat.sector_bytes(lat.sector_size(spec, sector))
        tracemalloc.start()
        try:
            lat.tau_commutator_norm(0.7 - 0.2j, -0.4 + 0.5j, spec, sector)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the block count is the real peak, not a loose stand-in
        assert peak <= need <= 1.25 * peak

    @staticmethod
    def peak_against_count(run, need):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # headroom for the Python objects and the d x d site tables
        assert peak <= need + 2 ** 16
        # the count is the real peak, not a loose stand-in
        assert need <= 1.25 * peak
        return peak

    @pytest.mark.parametrize("sites, cutoff",
                             [(4, 4), (3, 6), (2, 12), (5, 4)])
    def test_block_counts_bound_peak_memory(self, sites, cutoff):
        # at 4^5 the streamed checks nest over their last two sites, and
        # the exchange relation over its last two of 3^5 kept states
        spec = lat.LatticeSpec(sites, cutoff, 0.3, 1.0)
        peaks = [self.peak_against_count(run, need) for run, need in [
            (lambda: lat.monodromy(spec, 0.7 - 0.2j),
             lat.dense_bytes(spec, lat.MONODROMY_BLOCKS)),
            (lambda: lat.rtt_residual(0.7 - 0.2j, -0.4 + 0.5j, spec),
             exchange_bytes(spec)),
            (lambda: lat.number_conservation_defect(spec, 0.7 - 0.2j),
             conservation_bytes(spec)),
            (lambda: lat.hermiticity_pairing_defect(spec, 0.7),
             pairing_bytes(spec)),
        ]]
        # the two streamed checks hold no full-space block
        assert max(peaks[2:]) < lat.dense_bytes(spec, 1)

    def test_exchange_count_bounds_peak_memory_past_monodromy(self):
        # 3^8: monodromy is refused, while the exchange relation streams
        # the 2^8 kept states over its last two sites, 64 states below them
        spec = lat.LatticeSpec(8, 3, 0.3, 1.0)
        assert lat._stream_depth(2, 8) == 2
        self.peak_against_count(
            lambda: lat.rtt_residual(0.7 - 0.2j, -0.4 + 0.5j, spec),
            exchange_bytes(spec))

    @pytest.mark.parametrize("sites, cutoff", [(4, 4), (2, 12), (5, 4)])
    def test_exchange_count_bounds_a_batch(self, sites, cutoff):
        # a batch holds every pair's blocks, tables and sector blocks at
        # once, beside one set of state arrays
        spec = lat.LatticeSpec(sites, cutoff, 0.3, 1.0)
        lams = [0.7 - 0.2j, 0.1 + 0.3j, -1.2 - 0.4j]
        mus = [-0.4 + 0.5j, 0.9 - 0.1j, 0.3 + 0.8j]
        need = exchange_bytes(spec, 3)
        assert need > 2.5 * exchange_bytes(spec)
        self.peak_against_count(lambda: lat.rtt_residual(lams, mus, spec),
                                need)

    def test_batch_refused_by_its_total(self):
        # 4^7: one pair fits the byte budget, and a batch of them whose
        # total does not is refused before anything is allocated
        spec = lat.LatticeSpec(7, 4, 0.3, 1.0)
        one = exchange_bytes(spec)
        count = lat.DENSE_BUDGET_BYTES // one + 1
        assert one <= lat.DENSE_BUDGET_BYTES \
            < exchange_bytes(spec, count)
        lams = [0.7 - 0.2j + 0.1 * k for k in range(count)]
        mus = [-0.4 + 0.5j] * count
        calls = []
        tracemalloc.start()
        try:
            with mock.patch.object(lat, "_site_factor_table",
                                   side_effect=calls.append), \
                    pytest.raises(SizeLimit) as err:
                lat.rtt_residual(lams, mus, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20 and not calls
        assert str(exchange_bytes(spec, count)) in str(err.value)


class TestExchangeRelation:
    def test_trivial_cutoff(self):
        res = lat.rtt_residual(0.4, 1.1, lat.LatticeSpec(2, 1, 0.3, 1.3))
        assert res["residual"] == 0.0

    def test_single_site_grid(self):
        spec = lat.LatticeSpec(1, 4, 0.3, 1.3)
        rng = np.random.default_rng(5)
        worst = 0.0
        orderings = set()
        for _ in range(25):
            lam, mu = rng.normal(size=2) + 1j * rng.normal(size=2)
            res = lat.rtt_residual(lam, mu, spec)
            worst = max(worst, res["residual"])
            orderings.add(res["ordering"])
        assert worst < 1e-12
        assert orderings == {"lam_mu"}

    def test_other_ordering_fails(self):
        res = lat.rtt_residual(0.37 + 0.11j, -0.9 + 0.55j,
                               lat.LatticeSpec(1, 4, 0.3, 1.3))
        assert res["residual_mu_lam"] > 1e-3
        assert res["residual_lam_mu"] < 1e-12

    def test_pole_guard(self):
        with pytest.raises(RMatrixPole):
            lat.rtt_residual(1.0, 1.0, lat.LatticeSpec(1, 3, 0.3, 1.0))

    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_pole_anywhere_in_a_batch_refused_before_allocating(self, at):
        spec = lat.LatticeSpec(4, 4, 0.3, 1.0)
        lams = [0.3 + 0.1j * k for k in range(5)]
        mus = [-0.7 + 0.2j * k for k in range(5)]
        mus[at] = lams[at] + 1e-13
        calls = []
        tracemalloc.start()
        try:
            with mock.patch.object(lat, "_site_factor_table",
                                   side_effect=calls.append), \
                    mock.patch.object(lat, "_stream_bytes",
                                      side_effect=calls.append), \
                    pytest.raises(RMatrixPole):
                lat.rtt_residual(lams, mus, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16 and not calls

    def test_batch_needs_one_mu_per_lam(self):
        # a batch against a single mu, a single lam against a batch and an
        # empty batch are refused too, before any table is built
        calls = []
        for lam, mu in [([0.3, 0.5], [1.1]), ([0.3, 0.5], 1.1),
                        (0.3, [1.1]), ([], [])]:
            with mock.patch.object(lat, "_site_factor_table",
                                   side_effect=calls.append), \
                    pytest.raises(ValueError, match="one mu per lam"):
                lat.rtt_residual(lam, mu, lat.LatticeSpec(1, 3, 0.3, 1.0))
        assert not calls

    @given(st.integers(1, 3), st.integers(1, 4), st.floats(0.05, 1.0),
           st.floats(0.1, 3.0),
           st.lists(st.tuples(spectral, spectral), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    @example(2, 1, 0.3, 1.3, [(0.4 + 0j, 1.1 + 0j), (0.2 - 0.5j, -0.9 + 0j)])
    @example(3, 4, 0.3, 1.3, [(0.37 + 0.11j, -0.9 + 0.55j)] * 2
             + [(0.7 - 0.2j, -0.4 + 0.5j)])
    def test_batch_matches_single_pairs_and_whole_stacks(
            self, sites, cutoff, step, c, pairs):
        # cutoff 1 keeps no occupation (the suite's exchange-trivial-cutoff)
        assume(all(abs(lam - mu) >= 1e-3 for lam, mu in pairs))
        spec = lat.LatticeSpec(sites, cutoff, step, c)
        lams, mus = (list(v) for v in zip(*pairs))
        batch = lat.rtt_residual(lams, mus, spec)
        assert len(batch) == len(pairs)
        for (lam, mu), res in zip(pairs, batch):
            assert res == lat.rtt_residual(lam, mu, spec)
            assert (res["residual_lam_mu"], res["residual_mu_lam"]) \
                == whole_stack_rtt_residual(lam, mu, spec)

    @pytest.mark.parametrize("sites, cutoff",
                             [(1, 1), (1, 4), (2, 3), (3, 3), (4, 4)])
    def test_streamed_defect_matches_full_blocks(self, sites, cutoff):
        # the contraction sums in another order than the full blocks, so
        # the vanishing residual agrees at round-off, not bit for bit
        spec = lat.LatticeSpec(sites, cutoff, 0.3, 1.3)
        lam, mu = 0.37 + 0.11j, -0.9 + 0.55j
        res = lat.rtt_residual(lam, mu, spec)
        ref_lam_mu, ref_mu_lam = reference_rtt_residual(lam, mu, spec)
        assert max(res["residual_lam_mu"], ref_lam_mu) <= 1e-13
        assert res["residual_mu_lam"] == pytest.approx(ref_mu_lam, rel=1e-13)

    @given(st.integers(1, 4), st.integers(1, 4), st.floats(0.05, 1.0),
           st.floats(0.1, 3.0), spectral, spectral)
    @settings(max_examples=30, deadline=None)
    @example(4, 4, 0.3, 1.3, 0.37 + 0.11j, -0.9 + 0.55j)
    @example(2, 1, 0.3, 1.3, 0.4 + 0j, 1.1 + 0j)   # no kept state
    def test_streamed_residuals_match_whole_stacks(self, sites, cutoff,
                                                   step, c, lam, mu):
        assume(abs(lam - mu) >= 1e-3)
        spec = lat.LatticeSpec(sites, cutoff, step, c)
        res = lat.rtt_residual(lam, mu, spec)
        assert (res["residual_lam_mu"], res["residual_mu_lam"]) \
            == whole_stack_rtt_residual(lam, mu, spec)

    def test_nested_residuals_match_whole_stacks(self):
        # 3^5 kept states: the blocks are streamed over the last two sites
        spec = lat.LatticeSpec(5, 4, 0.3, 1.0)
        assert lat._stream_depth(3, 5) == 2
        lam, mu = 0.7 - 0.2j, -0.4 + 0.5j
        res = lat.rtt_residual(lam, mu, spec)
        assert (res["residual_lam_mu"], res["residual_mu_lam"]) \
            == whole_stack_rtt_residual(lam, mu, spec)

    def test_suite_grid_matches_whole_stacks(self):
        # the 25 pairs of the suite's exchange-relation check at seed 2024,
        # in one batch as the suite checks them
        spec = lat.LatticeSpec(1, 4, 0.3, 1.3)
        rng = random.Random("2024:lattice")
        pairs = []
        for _ in range(25):
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            mu = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(lam - mu) < 1e-3:
                mu += 0.5
            pairs.append((lam, mu))
        batch = lat.rtt_residual(*(list(v) for v in zip(*pairs)), spec)
        for (lam, mu), res in zip(pairs, batch):
            assert (res["residual_lam_mu"], res["residual_mu_lam"]) \
                == whole_stack_rtt_residual(lam, mu, spec)

    @given(st.integers(1, 3), st.integers(3, 4), st.floats(1e-3, 1e3),
           st.data())
    @settings(max_examples=20, deadline=None)
    def test_planted_number_shift_shows(self, sites, cutoff, size, data):
        # an entry of T(lam) (x) T(mu) at (0, 0) between kept states of
        # different number reaches only entry (0, 0) of R X - Y R in both
        # orderings, times f = R[0, 0], off its sector blocks: it must add
        # its size to both residuals
        spec = lat.LatticeSpec(sites, cutoff, 0.3, 1.3)
        lam, mu = 0.37 + 0.11j, -0.9 + 0.55j
        tables = [lat._pair_table(lat._site_factor_table(spec, a),
                                  lat._site_factor_table(spec, b))
                  [:cutoff - 1, :cutoff - 1] for a, b in ((lam, mu), (mu, lam))]
        counts = lat._particle_counts(cutoff - 1, sites)
        index = np.arange(len(counts))
        blocks = lat._product_blocks
        every = list(itertools.product(range(4), repeat=2))
        read = np.zeros((len(counts),) * 2, dtype=bool)
        for rows, cols, _ in blocks(tables, sites, [every] * 2):
            read[np.ix_(index[rows], index[cols])] = True
        off = np.argwhere(read & (counts[:, None] != counts[None, :]))
        i, j = off[data.draw(st.integers(0, len(off) - 1))]

        def planted(*args):
            for rows, cols, X in blocks(*args):
                at = np.flatnonzero(index[rows] == i), \
                    np.flatnonzero(index[cols] == j)
                X[0][at[0], at[1], 0] = size
                yield rows, cols, X

        clean = lat.rtt_residual(lam, mu, spec)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lat, "_product_blocks", planted)
            res = lat.rtt_residual(lam, mu, spec)
        want = whole_stack_rtt_residual(lam, mu, spec, plant=(i, j, size))
        assert res["residual_lam_mu"] == pytest.approx(want[0], rel=1e-14)
        assert res["residual_mu_lam"] == pytest.approx(want[1], rel=1e-14)
        shown = abs(lat.r_matrix(lam, mu, spec.c)[0, 0]) * size
        assert res["residual_lam_mu"] == pytest.approx(shown, rel=1e-9)
        assert res["residual_mu_lam"] >= max(clean["residual_mu_lam"],
                                             shown * (1 - 1e-12))

    def test_cli_rtt_beyond_full_space_budget(self, capsys):
        # four full blocks of the 3^8 states would not fit; only the 2^8
        # kept states are contracted
        spec = lat.LatticeSpec(8, 3, 0.3, 1.0)
        assert lat.dense_bytes(spec, 4) > lat.DENSE_BUDGET_BYTES
        code = main(["lattice", "rtt", "--sites", "8", "--cutoff", "3",
                     "--step", "0.3", "--coupling", "1.0"])
        res = json.loads(capsys.readouterr().out)
        assert code == 0
        assert res["residual"] < 1e-12 and res["ordering"] == "lam_mu"


class TestCommutingFamily:
    def test_vacuum_sector_scalar(self):
        spec = lat.LatticeSpec(3, 3, 0.4, 1.0)
        assert lat.tau_commutator_norm(0.4, 1.2, spec, 0) == 0.0

    def test_protected_sectors(self):
        rng = np.random.default_rng(7)
        for M in (2, 3, 4):
            for n in (1, 2, 3):
                spec = lat.LatticeSpec(M, n + 2, 0.4, 1.1)
                for _ in range(3):
                    lam, mu = rng.normal(size=2) + 1j * rng.normal(size=2)
                    assert lat.tau_commutator_norm(lam, mu, spec, n) < 1e-12

    def test_cutoff_guard(self):
        with pytest.raises(CutoffTooSmall):
            lat.tau_commutator_norm(0.3, 1.1, lat.LatticeSpec(2, 3, 0.3, 1.0), 2)

    def test_truncation_leakage_at_cutoff_equal_sector(self):
        clean = lat.tau_commutator_norm(
            0.3 + 0.4j, -1.1 + 0.2j, lat.LatticeSpec(3, 5, 0.25, 1.0), 3)
        leaking = lat.tau_commutator_norm(
            0.3 + 0.4j, -1.1 + 0.2j, lat.LatticeSpec(3, 3, 0.25, 1.0), 3,
            enforce_cutoff=False)
        assert clean < 1e-12
        assert leaking > 1e-6

    def test_one_buffer_level_still_exact(self):
        value = lat.tau_commutator_norm(
            0.3 + 0.4j, -1.1 + 0.2j, lat.LatticeSpec(3, 3, 0.25, 1.0), 2,
            enforce_cutoff=False)
        assert value < 1e-12


class TestContinuumLimit:
    def test_vacuum_eigenvalue_formula(self):
        spec = lat.LatticeSpec(8, 3, BOX_L / 8, 1.0)
        lam = 0.9
        expected = (1 - 0.5j * lam * spec.step) ** 8 \
            + (1 + 0.5j * lam * spec.step) ** 8
        assert lat.vacuum_eigenvalue(spec, lam) == pytest.approx(expected)

    def test_zero_parameter_exact_at_every_step(self):
        for M in (4, 8, 16):
            spec = lat.LatticeSpec(M, 3, BOX_L / M, 1.0)
            assert lat.vacuum_eigenvalue(spec, 0.0) == pytest.approx(2.0)

    def test_one_particle_error_decreases(self):
        errs = []
        for M in (8, 16, 32, 64):
            spec = lat.LatticeSpec(M, 3, BOX_L / M, 1.0)
            val = lat.one_particle_eigenvalue(spec, 0.9, 1)
            target = theta(0.9, [2 * math.pi / BOX_L], 1.0, BOX_L)
            errs.append(abs(val - target))
        assert all(a > b for a, b in zip(errs, errs[1:]))

    @pytest.mark.parametrize("sites", [8, 16, 32, 64, 72])
    @pytest.mark.parametrize("lam", [0.9, 0.4 + 0.3j, -1.3])
    def test_one_particle_pass_matches_full_block(self, sites, lam):
        spec = lat.LatticeSpec(sites, lat.CONTINUUM_CUTOFF, BOX_L / sites, 1.0)
        for n in (0, 1, 2):
            want = reference_one_particle_eigenvalue(spec, lam, n)
            got = lat.one_particle_eigenvalue(spec, lam, n)
            assert abs(got - want) <= 1e-14 * abs(want)

    def test_one_particle_needs_an_occupied_level(self):
        with pytest.raises(ValueError, match="cutoff"):
            lat.one_particle_eigenvalue(lat.LatticeSpec(4, 1, 0.3, 1.0), 0.9, 1)

    def test_cli_names_the_fit_sites(self, capsys):
        # the verb takes the box length; the fit uses its own sites
        code = main(["lattice", "continuum", "--length", str(BOX_L),
                     "--coupling", "1.0", "--lam", "0.9"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [row["sites"] for row in out["rows"]] \
            == list(lat.CONTINUUM_SITES)
        assert out["length"] == BOX_L

    def test_fitted_orders(self):
        rep = lat.continuum_limit_rate(1.0, BOX_L, 0.9)
        assert rep["order_vacuum_raw"] >= 0.8
        assert rep["order_one_particle_raw"] >= 0.8
        assert rep["order_vacuum_normalized"] == pytest.approx(2.0, abs=0.25)
        assert rep["order_one_particle_normalized"] == pytest.approx(2.0, abs=0.25)


class TestOrderingBreakdown:
    def test_single_site_entry_already_ordered(self):
        rep = lat.normal_ordering_breakdown(lat.LatticeSpec(2, 3, 0.2, 1.5), 0.7)
        assert rep["one_site_difference"] == 0.0

    def test_two_site_cross_term_differs(self):
        rep = lat.normal_ordering_breakdown(lat.LatticeSpec(2, 3, 0.2, 1.5), 0.7)
        assert rep["relative_difference"] > 0.0

    def test_quadratic_step_scaling(self):
        rep = lat.ordering_defect_rate(1.5, 3, 0.7)
        assert rep["order"] == pytest.approx(2.0, abs=0.25)
