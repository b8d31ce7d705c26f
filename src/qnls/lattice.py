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

- sector matrices multiply it over all config pairs at once, k^2
  broadcast products per site for its k x k factors, one column of the
  new product at a time (``_contract_sites``, for number sectors);
- the full-space monodromy is the one dense engine: it grows by one
  tensor factor per site, each entry of L(s) T a sum of two Kronecker
  products of d x d slices table[:, :, r, s] with entries of the product
  over sites s-1..1 (``_left_multiply``).  Block (i, j) of such a
  product is the slice entry (i, j) times the entry below, so only the
  blocks of nonzero slice entries are written, one at a time
  (``_write_block``), into a zeroed output: at d = 4, 4 of the 16 for
  the diagonal slices and 3 of 16 for the off-diagonal ones, each a
  block of dimension dim/d, dim = d^M.  The zero pattern is read from
  the table, and the sums run in Kronecker order, so every entry equals
  the sum of Kronecker products bit for bit.  Only the last site works
  on dim x dim blocks (``monodromy``);
- the three full-space checks never form a dim x dim block: each
  streams the blocks of the monodromy entries it reads
  (``_product_blocks``), one block over the levels of its last k sites
  at a time, k the fewest sites that leave at most 64 states below them
  (k = 1 up to d^(M-1) = 64 states).  Each block is written from the
  columns of the products below those k sites that its entry reads, one
  nested level of the dense engine's block sums per site
  (``_write_nested``, the same terms in the same order), so every entry
  is the dense engine's float.  Number conservation reads A and D of the
  site table and adds them into that block of tau = A + D.  The adjoint
  pairing reads D of the site table and A of the adjoint site table,
  conj(table[n, n']) in place of table[n', n], whose product is A^dag
  block by block and bit for bit, and subtracts them.  The exchange
  relation reads all 16 entries of T(lam) (x) T(mu), itself a monodromy
  with the 4x4 site factor sum_n'' L(lam)[n', n''] (x) L(mu)[n'', n],
  for both tensor orderings over the (d-1)^M kept states only, from that
  factor restricted to the kept levels, and forms the 16 entries of
  R X - Y R of each block;
- the one-particle block is never formed: one pass over the sites
  applies it to its Fourier vector for all rows at once, carrying two
  2x2 products per row (``one_particle_eigenvalue``);
- a sector's occupation configs are grown one site at a time from the
  prefixes that can still reach its total (``occupation_configs``).

Each operator whose 2-norm the exchange relation or the adjoint pairing
takes moves particle number by a fixed amount (A and D conserve it, B
and C shift it by +1 and -1), so its 2-norm is the largest 2-norm of its
blocks between number sectors.  The sectors are index groups of the
basis states, in basis order (``_sector_groups``).  No such operator is
formed whole: ``_SectorBuffer`` moves the in-sector entries of each
streamed block straight into one buffer of the sector blocks, per
operator, sums the squares of the rest, and takes one small SVD per
sector block for all its operators; the root of the sum left is added,
which is 0 when the operator moves number by exactly the given amount:
the result is exact then and an upper bound on the full 2-norm always.
Number conservation zeroes each block's in-sector entries and takes the
largest entry left.  ``tau_commutator_norm`` already works in one
sector, and ``normal_ordering_breakdown`` measures 9 x 9 blocks; both
take plain 2-norms.

The monodromy holds a known number of dim x dim complex blocks, the
streamed checks what the stream holds, blocks of the size of their
products below the last k sites, beside their own sector blocks and
state arrays (``_stream_bytes``), and the sector commutator a known
number of m x m ones over the m configs of its sector; their bytes are
checked against DENSE_BUDGET_BYTES before anything is allocated, and so
are the entries the streamed checks would write (``_stream_entries``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .charges import fit_loglog_slope
from .errors import CutoffTooSmall, RMatrixPole, SizeLimit
from .transfer import theta

DENSE_BUDGET_BYTES = 2 ** 30
# Block entries a streamed check may write (_stream_entries): at 1.0e8 to
# 1.4e8 entries per second (number_conservation_defect at 4^5 to 4^8, the
# blocks of A and D, CPU time on one BLAS thread of a 2-core x86-64
# machine), 8-10 s of work.
_STREAM_ENTRY_BUDGET = 2 ** 30
COMPLEX_BYTES = 16
_INDEX_BYTES = np.dtype(np.intp).itemsize
# Dense complex blocks alive at once.  monodromy, at the last site: 3
# finished dim x dim blocks, the one being written, and the previous
# site's 4 blocks of dimension dim/d (a quarter block at d = 4) with one
# such temporary where two slices reach the same block; tracemalloc peaks
# at 4.05-4.32 full blocks at the sizes the tests measure (4^4, 6^3,
# 12^2).
MONODROMY_BLOCKS = 5
# tau_commutator_norm holds (m x m) complex blocks over the m configs of
# its sector: the first sector matrix while the second is contracted, that
# contraction's running and new (m, m, 2, 2) products, its gathered
# factors and one broadcast product, (m, m, 2, 1) and (m, m, 2): 13, and
# 1 more for the configs, index arrays and small tables.  tracemalloc
# peaks at 13.08-13.52 blocks at 136 to 364 configs.
SECTOR_BLOCKS = 1 + 2 * 4 + 2 * 2 + 1
# The full-space checks stream blocks over the levels of their last k
# sites, k the fewest that leave at most _STREAM_STATES states below them
# (_stream_depth).  Nesting pays only past 64 states (medians in-process
# on one BLAS thread of a 2-core x86-64 machine): at 4^4, 16-state blocks
# over the last two sites made the adjoint pairing 1.70 -> 3.93 ms; at
# 4^5, 64-state blocks over the last two sites took it 24.4 -> 17.2 ms and
# its tracemalloc peak 8.25 -> 2.37 MiB, and 16-state blocks over the
# last three 54.7 ms.
_STREAM_STATES = 64
# The entries of the two tables that number conservation and the adjoint
# pairing stream (_product_blocks): A of the first, D of the second.
_DIAGONAL = ([(0, 0)], [(1, 1)])
# continuum_limit_rate: one-particle momentum index, per-site cutoff and
# the site counts of the fit
CONTINUUM_MOMENTUM_INDEX = 1
CONTINUUM_CUTOFF = 3
CONTINUUM_SITES = (8, 16, 32, 64)
# the least fitted orders: the normalized errors are second order in the
# step; the raw ones add the first-order per-site modulus factor, but over
# CONTINUUM_SITES their fit reaches 0.8 only near the suite's input
CONTINUUM_MIN_ORDER = {"order_vacuum_normalized": 1.0,
                       "order_one_particle_normalized": 1.0}
CONTINUUM_MIN_RAW_ORDER = {"order_vacuum_raw": 0.8, "order_one_particle_raw": 0.8}
# round-off bound of the exchange, commutator and adjoint-pairing residuals
IDENTITY_TOL = 1e-12
# ordering_defect_rate: the lattice steps of the fit
ORDERING_STEPS = tuple(0.2 / 2 ** k for k in range(5))


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

def dense_bytes(spec: LatticeSpec, blocks: int) -> int:
    """Bytes of ``blocks`` full (dim x dim) complex blocks."""
    dim = spec.cutoff ** spec.sites
    return COMPLEX_BYTES * blocks * dim * dim


def sector_bytes(configs: int) -> int:
    """Bytes of the dense blocks of ``tau_commutator_norm`` on a sector of
    ``configs`` occupation configs."""
    return COMPLEX_BYTES * SECTOR_BLOCKS * configs * configs


def _stream_depth(levels: int, sites: int) -> int:
    """How many last sites a streamed check splits its blocks over: the
    fewest that leave at most _STREAM_STATES states below them, but one
    site or more below them from two sites on."""
    depth = 1
    while depth < sites - 1 and levels ** (sites - depth) > _STREAM_STATES:
        depth += 1
    return depth


def _sector_area(levels: int, sites: int, sectors: dict[int, int]) -> int:
    """Entries of the blocks between number sectors n + shift and n, over
    all n, of ``sectors[shift]`` operators for each shift, over the states
    of ``sites`` sites with ``levels`` levels; the sector sizes are the
    coefficients of (1 + x + ... + x^(levels-1))^sites."""
    sizes = [1]
    for _ in range(sites):
        sizes = [sum(sizes[max(0, total - levels + 1):total + 1])
                 for total in range(len(sizes) + levels - 1)]
    return sum(count * a * b for shift, count in sectors.items()
               for a, b in zip(sizes, sizes[abs(shift):]))


def _stream_bytes(levels: int, sites: int, entries, factors: int = 1,
                  sectors: dict[int, int] | None = None, blocks: int = 0,
                  held: int = 0) -> int:
    """Bytes held by a check that streams the ``entries`` of site tables
    of ``levels`` levels over ``sites`` sites, each table a product of
    ``factors`` site factors: what the stream holds (``_product_blocks``),
    the check's own ``blocks`` of the stream's size and ``held`` complex
    entries, the sector blocks of its ``_SectorBuffer`` over
    ``sectors[shift]`` operators for each shift, and its state arrays:
    the particle number of each state and, with sector blocks, each
    state's place in its sector and, for each shift, where its row of its
    sector block starts.

    tracemalloc peaks at 12-34 KiB above the count for number
    conservation and the adjoint pairing at 4^4, 6^3, 12^2 (one streamed
    site) and 4^5 (two), and from 143 KiB below to 28 KiB above it for the
    exchange relation there and at 3^8, for one pair and for three."""
    depth = _stream_depth(levels, sites)
    n = levels ** (sites - depth)
    rows = 2 ** factors
    blocks += 1 + rows * (depth - 1) + sum(
        rows * len({c for _, c in wanted}) + len(wanted) for wanted in entries)
    arrays, area = 1, 0
    if sectors:
        arrays, area = 2 + len(sectors), _sector_area(levels, sites, sectors)
    return COMPLEX_BYTES * (blocks * n * n + held + area) \
        + arrays * _INDEX_BYTES * levels ** sites


def _check_dense_budget(spec: LatticeSpec, what: str, need: int,
                        entries: int = 0) -> None:
    """Raises SizeLimit, before anything is allocated, unless the ``need``
    bytes of dense blocks of ``what`` fit the byte budget and the block
    ``entries`` it writes the entry budget."""
    if need > DENSE_BUDGET_BYTES:
        raise SizeLimit(
            f"{what} at {spec.sites} sites, cutoff {spec.cutoff} needs "
            f"{need} bytes of dense complex blocks, over the budget of "
            f"{DENSE_BUDGET_BYTES} bytes")
    if entries > _STREAM_ENTRY_BUDGET:
        raise SizeLimit(f"{what} at {spec.sites} sites, cutoff {spec.cutoff} "
                        f"writes {entries} block entries, over the budget "
                        f"of {_STREAM_ENTRY_BUDGET}")


def _stream_entries(levels: int, sites: int, entries,
                    factors: int = 1) -> int:
    """The most block entries that streaming the ``entries`` of site
    tables, each a product of ``factors`` site factors, of ``levels``
    levels over ``sites`` sites writes (``_product_blocks``): n x n of
    each for every level pair of its last k sites that such a table
    reaches, |n' - n| <= factors at each; at one site, the whole table."""
    depth = _stream_depth(levels, sites)
    n = levels ** (sites - depth)
    written = sum(map(len, entries))
    reach = sum(levels - abs(shift) for shift in range(-factors, factors + 1)
                if abs(shift) < levels)
    return written * (levels ** 2 if sites == 1 else reach ** depth * n * n)


def _site_products(L: np.ndarray, sites: int, columns=None):
    """The k x k entries of the product of ``sites`` copies of the
    (k, k, d, d) site factor L, site 1 the rightmost tensor factor, or None
    for no sites.  Column c of a product is formed from column c of the
    product below alone, so only the ``columns`` listed (all by default)
    are formed; the other entries are None."""
    columns = range(len(L)) if columns is None else columns
    T = None
    for _ in range(sites):
        T = [[_left_multiply(L, T, r, c) if c in columns else None
              for c in range(len(L))] for r in range(len(L))]
    return T


def _left_multiply(L: np.ndarray, T, r: int, c: int) -> np.ndarray:
    """Entry (r, c) of L(site) T, the sum over q of L[r, q] (x) T[q][c],
    or L[r, c] itself when there is no product T below the site.

    Block (i, j) of a Kronecker product L[r, q] (x) T[q][c] is
    L[r, q][i, j] T[q][c], so only the blocks that some slice reaches are
    written (``_write_block``) into the zeroed output; the zero pattern is
    read from the slices, and the result equals the sum of Kronecker
    products bit for bit."""
    if T is None:
        return L[r, c]
    d, n = L.shape[-1], len(T[0][c])
    out = np.zeros((d * n, d * n), dtype=complex)
    blocks = out.reshape(d, n, d, n)
    column = [row[c] for row in T]
    for i, j in zip(*np.nonzero(L[r].any(axis=0))):
        _write_block(L[r], column, i, j, blocks[i, :, j])
    return out


def _write_block(factors: np.ndarray, column, i: int, j: int,
                 out: np.ndarray) -> bool:
    """Block (i, j) of the sum over q of factors[q] (x) column[q], for the
    slices factors[q] = L[r, q] of one row of a site factor and the entries
    column[q] = T[q][c] of one column of the product below it: the sum over
    q of factors[q][i, j] column[q], written into ``out`` in q order, the
    first nonzero slice entry's term with np.multiply, each later one
    added, each formed as np.kron forms it (the slice entry the left
    operand).  Returns False, ``out`` untouched, when no slice reaches the
    block."""
    written = False
    for part, below in zip(factors, column):
        entry = part[i, j]
        if entry:
            if written:
                out += np.multiply(entry, below)
            else:
                np.multiply(entry, below, out=out)
                written = True
    return written


def _write_nested(L: np.ndarray, T, r: int, c: int, I: tuple, J: tuple,
                  out: np.ndarray, spare) -> bool:
    """Block (I, J) of entry (r, c) of the product of len(I) copies of the
    site factor L over the products T below them, I and J the levels of
    those sites, the leftmost site first.

    It is the sum over q of L[r, q][I[0], J[0]] times block (I[1:], J[1:])
    of entry (q, c) of the product one site shorter, so each such block
    that a slice reaches is written the same way into ``spare[0][q]``
    (zeroed where nothing below reaches it) and the sum is taken by
    ``_write_block``; the innermost blocks are read from T.  These are the
    terms and the q order of ``_left_multiply``, so every entry is the
    float of the dense engine.  Returns False, ``out`` untouched, when no
    slice reaches the block."""
    if len(I) == 1:
        return _write_block(L[r], [row[c] for row in T], I[0], J[0], out)
    column = spare[0]
    for q, part in enumerate(L[r]):
        if part[I[0], J[0]] and not _write_nested(
                L, T, q, c, I[1:], J[1:], column[q], spare[1:]):
            column[q][...] = 0.0
    return _write_block(L[r], column, I[0], J[0], out)


def _level_blocks(reach: np.ndarray, depth: int, n: int):
    """Yields (I, J, rows, cols) for each choice of a level pair (i, j)
    with ``reach[i, j]`` at each of the last ``depth`` sites, site M first:
    the levels I and J and the ranges of the block's ``n`` row and column
    states (site M the slowest index), in row-major order of the pairs."""
    d = len(reach)
    pairs = list(zip(*np.nonzero(reach)))
    for chosen in itertools.product(pairs, repeat=depth):
        I, J = zip(*chosen)
        row = col = 0
        for i, j in chosen:
            row, col = row * d + i, col * d + j
        yield I, J, slice(row * n, (row + 1) * n), slice(col * n, (col + 1) * n)


def monodromy(spec: LatticeSpec, lam: complex,
              rho_override=None) -> list[list[np.ndarray]]:
    """T(lam) = L(M) ... L(1) as a 2x2 block matrix of full-space operators.

    Site 1 is the rightmost tensor factor, so each site adds a leftmost
    factor: for T the product over sites s-1..1, entry (r, c) of L(s) T is
    L[r, 0] (x) T[0][c] + L[r, 1] (x) T[1][c], of dimension d^s, written
    block by block for the nonzero slice entries (``_left_multiply``),
    the site factor taken as a (2, 2, d, d) stack of slices,
    L[r, s] = table[:, :, r, s].  Only the last site forms dim x dim
    blocks.  ``rho_override`` replaces the table's rho diagonal.
    """
    _check_dense_budget(spec, "monodromy", dense_bytes(spec, MONODROMY_BLOCKS))
    L = _site_factor_table(spec, lam, rho_override).transpose(2, 3, 0, 1)
    return _site_products(L, spec.sites)


def transfer_operator(spec: LatticeSpec, lam: complex) -> np.ndarray:
    (A, _), (_, D) = monodromy(spec, lam)
    A += D
    return A


# ----------------------------------------------------------------------
# Occupation sectors
# ----------------------------------------------------------------------

def occupation_configs(spec: LatticeSpec, total: int) -> np.ndarray:
    """Rows: the site occupations with the given total, entries <= d-1,
    in lexicographic order (site M the fastest index).

    Grown one site at a time, keeping only the prefixes that the later
    sites can still bring to the total, so the cost follows the sector's
    size rather than d^M."""
    d, M = spec.cutoff, spec.sites
    rows = np.zeros((1, 0), dtype=np.intp)
    sums = np.zeros(1, dtype=np.intp)
    for site in range(M):
        grown = sums[:, None] + np.arange(d)
        reach = (d - 1) * (M - 1 - site)   # the most the later sites add
        prefix, value = np.nonzero((grown <= total) & (grown + reach >= total))
        rows = np.column_stack([rows[prefix], value])
        sums = grown[prefix, value]
    return rows


def sector_size(spec: LatticeSpec, total: int) -> int:
    """The number of rows of ``occupation_configs``, counted without
    forming them: the compositions of the total into M parts of at most
    d-1, by inclusion-exclusion over the parts that exceed it."""
    d, M = spec.cutoff, spec.sites
    if total < 0:
        return 0
    return sum((-1) ** j * math.comb(M, j) * math.comb(total - j * d + M - 1,
                                                       M - 1)
               for j in range(total // d + 1))


def number_conservation_defect(spec: LatticeSpec, lam: complex) -> float:
    """Largest matrix element of tau(lam) connecting different sectors,
    read one block over the levels of the last sites at a time: blocks of
    A and D are streamed (``_product_blocks``) and added into that block
    of tau, whose in-sector entries are zeroed and whose largest entry
    left is taken.  Holds no dim x dim block (``_stream_bytes``)."""
    d, M = spec.cutoff, spec.sites
    _check_dense_budget(spec, "number conservation",
                        _stream_bytes(d, M, _DIAGONAL),
                        _stream_entries(d, M, _DIAGONAL))
    table = _site_factor_table(spec, lam)
    counts = _particle_counts(d, M)
    worst = 0.0
    for rows, cols, X in _product_blocks([table, table], M, _DIAGONAL):
        tau, D = X[..., 0]
        tau += D
        tau[counts[rows][:, None] == counts[cols]] = 0.0
        worst = np.maximum(worst, np.abs(tau).max())   # a NaN entry shows
    return float(worst)


def _particle_counts(levels: int, sites: int) -> np.ndarray:
    """The particle number of each basis state of ``sites`` sites with
    occupations 0..levels-1, site 1 the fastest index: each site adds its
    levels as the slowest index, so only arrays of the states are formed."""
    counts = np.zeros(1, dtype=np.intp)
    for _ in range(sites):
        counts = np.add.outer(np.arange(levels), counts).ravel()
    return counts


def _sector_groups(counts: np.ndarray) -> list[np.ndarray]:
    """groups[n]: the states with particle number n, in basis order, for
    n up to the largest of ``counts``."""
    return [np.flatnonzero(counts == n)
            for n in range(counts.max(initial=0) + 1)]


class _SectorBuffer:
    """The blocks between number sectors of operators that each move
    particle number by a fixed shift, over states with particle numbers
    ``counts``: for ``operators[shift]`` operators that move it by shift,
    rows in sector n + shift against columns in sector n, in basis order
    (``_sector_groups``), one buffer row per operator.

    Such an operator is block diagonal up to the order of its states, so
    its 2-norm is the largest 2-norm of these blocks.  Each block of the
    operators that a streamed check forms moves its entries between those
    sectors into the buffer (``place``, ``move``), which returns the sum
    of squared magnitudes of the rest: 0 for a number-shifting operator,
    and its square root added to the block norms (``norms``) keeps the
    result >= the 2-norm of any operator, so a conservation fault raises
    the residual rather than hiding it."""

    def __init__(self, counts: np.ndarray, operators: dict[int, int]):
        groups = _sector_groups(counts)
        sizes = np.array([len(group) for group in groups])
        self.counts = counts
        self.pos = np.empty_like(counts)   # each state's place in its sector
        for group in groups:
            self.pos[group] = np.arange(len(group))
        self.shifts = {}
        for shift, entries in operators.items():
            cols = np.arange(max(0, -shift), len(groups) - max(0, shift))
            rows = cols + shift
            areas = sizes[rows] * sizes[cols]
            ends = np.cumsum(areas, dtype=np.intp)
            blocks = [(end - area, end, sizes[r], sizes[c]) for end, area, r, c
                      in zip(ends, areas, rows, cols) if area]
            # where each state's row of its block starts in the buffer
            start = np.zeros(len(groups), dtype=np.intp)
            width = np.zeros(len(groups), dtype=np.intp)
            start[rows], width[rows] = ends - areas, sizes[cols]
            area = ends[-1] if len(ends) else 0
            self.shifts[shift] = (
                blocks, start[counts] + self.pos * width[counts],
                np.zeros((entries, area), dtype=complex))

    def place(self, rows: slice, cols: slice, shift: int):
        """The entries (r, c) of a block over the state ranges rows x cols
        between sectors n + shift and n, and their places in the buffer."""
        at = np.nonzero(self.counts[rows][:, None] == self.counts[cols] + shift)
        return at, self.shifts[shift][1][rows][at[0]] + self.pos[cols][at[1]]

    def move(self, X: np.ndarray, at, places: np.ndarray, shift: int,
             entries: int | slice):
        """Moves the entries ``at`` of a block X, or of a stack X of blocks
        of several operators, to their ``places`` (``place``) in the buffer
        rows ``entries``, zeroing them in X, and returns the sum of squared
        magnitudes of what is left of each block."""
        self.shifts[shift][2][entries, places] = X[..., at[0], at[1]]
        X[..., at[0], at[1]] = 0.0
        # real and imaginary parts side by side (no copy of a C-ordered X)
        parts = np.ascontiguousarray(X).view(float)
        return np.einsum("...ij,...ij->...", parts, parts)

    def norms(self, shift: int) -> np.ndarray:
        """The largest sector-block 2-norm of each operator that moves
        number by ``shift``, one SVD call per block for all of them."""
        blocks, _, buffer = self.shifts[shift]
        worst = np.zeros(len(buffer))
        for start, end, m, n in blocks:
            block = buffer[:, start:end].reshape(-1, m, n)
            worst = np.maximum(worst,
                               np.linalg.svd(block, compute_uv=False)[:, 0])
        return worst


# ----------------------------------------------------------------------
# Sector transfer matrix by auxiliary contraction (large M, small sectors)
# ----------------------------------------------------------------------

def _contract_sites(table: np.ndarray, occ: np.ndarray) -> np.ndarray:
    """out[i, j] = table[occ[i, M-1], occ[j, M-1]] ... table[occ[i, 0],
    occ[j, 0]], the auxiliary k x k product of a (d, d, k, k) site table
    between occupation rows i and j, site M leftmost.  All pairs are taken
    together: each site forms the new product one column at a time, as k
    broadcast products of the running product's columns with that
    column's gathered factors (for k = 2 several times cheaper than a
    stacked matmul of the tiny matrices).  Beside the running and the new
    product only (m, m, k) temporaries are alive.  Serves the number
    sectors, whose configs are not a full tensor product of levels."""
    k = table.shape[-1]
    prod = table[occ[:, None, -1], occ[None, :, -1]]
    for site in reversed(range(occ.shape[1] - 1)):
        rows, cols = occ[:, None, site], occ[None, :, site]
        new = np.empty_like(prod)
        for b in range(k):
            # g[..., c, :] = table[occ[i, site], occ[j, site], c, b]
            g = table[rows, cols, :, b, None]
            col = new[..., :, b]
            np.multiply(prod[..., :, 0], g[..., 0, :], out=col)
            for c in range(1, k):
                col += prod[..., :, c] * g[..., c, :]
        prod = new
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


def _product_blocks(tables: Sequence[np.ndarray], sites: int,
                    entries: Sequence[Sequence[tuple[int, int]]]):
    """Yields (rows, cols, X): X[t][:, :, e] the block over the state
    ranges rows x cols of entry entries[t][e] = (r, c) of the product of
    the (d, d, k, k) site table tables[t] over ``sites`` sites, site M
    leftmost, for each block over the levels of the last k sites (k from
    ``_stream_depth``) that a slice of any table reaches; at one site
    those entries of the tables themselves.  Every table lists as many
    entries.  X is overwritten by the next block.

    Each entry is written as the dense engine writes it
    (``_write_nested``), from the columns of the products below the last
    k sites that the table's entries read.  The stream holds, in blocks
    of the size of those products: for each table, the products in each
    column read and the block of each entry; one term of a sum where two
    slices reach a block; and one block per row of a table for each of
    the k - 1 nested levels (``_stream_bytes``)."""
    Ls = [table.transpose(2, 3, 0, 1) for table in tables]
    levels, k = len(tables[0]), len(Ls[0])
    depth = _stream_depth(levels, sites)
    if depth == sites:
        yield slice(None), slice(None), np.array(
            [table[:, :, [r for r, _ in wanted], [c for _, c in wanted]]
             for table, wanted in zip(tables, entries)])
        return
    Ts = [_site_products(L, sites - depth, {c for _, c in wanted})
          for L, wanted in zip(Ls, entries)]
    n = levels ** (sites - depth)
    # entries last: all 16 entries of a 4 x 4 table then lie as the
    # (n, n, 4, 4) stack the exchange relation's matmuls read, whose
    # strides decide their summation order and so their floats
    X = np.empty((len(tables), n, n, len(entries[0])), dtype=complex)
    blocks = np.moveaxis(X, -1, 1)   # blocks[t][e] = X[t][:, :, e]
    spare = np.empty((depth - 1, k, n, n), dtype=complex)
    reach = np.logical_or.reduce([L.any(axis=(0, 1)) for L in Ls])
    for I, J, rows, cols in _level_blocks(reach, depth, n):
        written = False
        for L, T, wanted, out in zip(Ls, Ts, entries, blocks):
            for (r, c), block in zip(wanted, out):
                if _write_nested(L, T, r, c, I, J, block, spare):
                    written = True
                else:
                    block[...] = 0.0
        if written:
            yield rows, cols, X


# the entries (r, s) of R X - Y R by the number shift popcount(s) -
# popcount(r) they make (``rtt_residual``)
_EXCHANGE_ENTRIES = {shift: [(r, s) for r in range(4) for s in range(4)
                             if s.bit_count() - r.bit_count() == shift]
                     for shift in range(-2, 3)}


def rtt_residual(lam: complex | Sequence[complex],
                 mu: complex | Sequence[complex],
                 spec: LatticeSpec) -> dict | list:
    """Exchange-relation defect for both tensor-leg orderings.

    Restricted to states with every occupation <= d-2, where truncation
    cannot clip the two-operator products.  Each tensor ordering is a
    monodromy of the 4x4 pair table between the kept states only, formed
    one block over the levels of the last sites at a time
    (``_product_blocks``).  The defect is the largest 2-norm over the 16
    operator entries of R X - Y R: T_ac moves number by c - a, so entry
    (ab),(cd) of T (x) T, at auxiliary index 2a + b, moves it by
    popcount(2c + d) - popcount(2a + b), and since R only swaps indices 1
    and 2, entry (r, s) of R X - Y R moves it by popcount(s) -
    popcount(r).  So each block of each entry is moved into the sector
    buffer of its shift (``_SectorBuffer``), the entries of one shift
    sharing one placement, and measured there.  Returns both residuals
    and the ordering that vanishes.

    Equal-length sequences of lam and mu give a list, one result per
    pair, from one pass: every pair's tables go through
    ``_product_blocks`` together, each entry is formed with each pair's
    R over a leading pair axis, and one sector buffer holds the entries
    of every pair, so each sector block takes one SVD call for all of
    them.  Each pair's products, sums and norms are those of a call on
    that pair alone, so its result is the same float; a single pair is
    the batch of one.
    """
    many = np.ndim(lam) > 0
    lams, mus = (lam, mu) if many else ([lam], [mu])
    if np.ndim(mus) != 1 or len(lams) != len(mus) or not len(lams):
        raise ValueError("a batch needs one mu per lam, and one pair or more")
    if any(abs(a - b) < 1e-12 for a, b in zip(lams, mus)):
        raise RMatrixPole("coinciding spectral parameters")
    count, kept = len(lams), spec.cutoff - 1
    entries = _EXCHANGE_ENTRIES
    # every entry of both orderings' tables of every pair; buffer row
    # (t * len(pairs) + e) * count + p: entry e of ordering t of pair p
    every = [list(itertools.product(range(4), repeat=2))] * (2 * count)
    operators = {shift: 2 * len(pairs) * count
                 for shift, pairs in entries.items()}
    # beside the stream, for each pair: the entries of R X - Y R that make
    # one number shift (6 at most) and the two halves of the one being
    # formed, and both orderings' (d, d, 4, 4) pair tables and the
    # (d, d, 2, 2) site tables they are formed from
    _check_dense_budget(
        spec, "exchange relation",
        _stream_bytes(kept, spec.sites, every, 2, operators, 8 * count,
                      (2 * 16 + 2 * 4) * count * spec.cutoff ** 2),
        _stream_entries(kept, spec.sites, every, 2))
    R = np.array([r_matrix(a, b, spec.c) for a, b in zip(lams, mus)])
    sites = [(_site_factor_table(spec, a), _site_factor_table(spec, b))
             for a, b in zip(lams, mus)]
    # R (T(lam) x T(mu)) = (T(mu) x T(lam)) R: every pair's lam-mu table,
    # then every pair's mu-lam table
    tables = [_pair_table(tl, tm)[:kept, :kept] for tl, tm in sites] \
        + [_pair_table(tm, tl)[:kept, :kept] for tl, tm in sites]
    sectors = _SectorBuffer(_particle_counts(kept, spec.sites), operators)
    off = {shift: np.zeros((2, len(pairs), count))
           for shift, pairs in entries.items()}
    stack = None   # the entries of one shift, of one ordering, every pair's
    for rows, cols, both in _product_blocks(tables, spec.sites, every):
        both = both.reshape(both.shape[:3] + (4, 4))
        lm, ml = both[:count], both[count:]
        if stack is None:
            stack = np.empty((max(map(len, entries.values())),)
                             + lm.shape[:3], dtype=complex)
        for shift, pairs in entries.items():
            at, places = sectors.place(rows, cols, shift)
            width = len(pairs) * count
            for t, (X, Y) in enumerate(((lm, ml), (ml, lm))):
                for entry, (r, s) in zip(stack, pairs):
                    # each pair's row R[p, r] and column R[p, :, s] as a
                    # (count, 1, 4, 1) stack of 4 x 1 matrices
                    np.subtract((X[..., :, s] @ R[:, None, r, :, None])[..., 0],
                                (Y[..., r, :] @ R[:, None, :, s, None])[..., 0],
                                out=entry)
                off[shift][t] += sectors.move(
                    stack[:len(pairs)].reshape((width,) + stack.shape[2:]),
                    at, places, shift, slice(t * width, (t + 1) * width)
                ).reshape(len(pairs), count)
    res = np.max([(sectors.norms(shift).reshape(2, len(pairs), count)
                   + np.sqrt(off[shift])).max(axis=1)
                  for shift, pairs in entries.items()], axis=0)
    results = [{
        "residual_lam_mu": float(res_a),
        "residual_mu_lam": float(res_b),
        "residual": float(min(res_a, res_b)),
        "ordering": "lam_mu" if res_a <= res_b else "mu_lam",
    } for res_a, res_b in res.T]
    return results if many else results[0]


def tau_commutator_norm(lam: complex, mu: complex, spec: LatticeSpec,
                        n_sector: int, enforce_cutoff: bool = True) -> float:
    """|| [tau(lam), tau(mu)] || on the fixed-number sector block."""
    if enforce_cutoff and spec.cutoff < n_sector + 2:
        raise CutoffTooSmall(
            f"sector {n_sector} needs cutoff >= {n_sector + 2}, got {spec.cutoff}")
    m = sector_size(spec, n_sector)
    if not m:
        raise CutoffTooSmall("sector empty at this cutoff")
    _check_dense_budget(spec, f"sector {n_sector} ({m} configs)",
                        sector_bytes(m))
    configs = occupation_configs(spec, n_sector)
    ta = tau_sector_matrix(spec, lam, configs)
    tb = tau_sector_matrix(spec, mu, configs)
    return float(np.linalg.norm(ta @ tb - tb @ ta, 2))


def hermiticity_pairing_defect(spec: LatticeSpec, lam: float) -> float:
    """At real lam the diagonal monodromy entries are mutual adjoints:
    ||A^dag - D||_2 per number sector (``_SectorBuffer``): the largest
    2-norm of the sector blocks plus the Frobenius norm of every entry off
    them, which is 0 on a number-conserving table and makes a
    conservation fault show.

    A^dag - D is never formed whole: its blocks over the levels of the
    last sites, of at most _STREAM_STATES states where the lattice is
    large, are formed one at a time (``_product_blocks``).  A^dag is A of
    the adjoint site table, conj(table[n, n']) in place of table[n', n]:
    entry (r, c) of its product is the adjoint of entry (r, c) of the
    product of the table, formed from the conjugates of the same terms in
    the same order, so every block is the adjoint of A's, bit for bit.
    Each block's in-sector entries are moved into one buffer of the
    sector blocks, in basis order, and the squares of the rest are
    summed; then one SVD per sector.  At 4^5 the sector blocks, 116,304
    entries of the 1,048,576 of A, are most of what the check holds
    (``_stream_bytes``)."""
    d, M = spec.cutoff, spec.sites
    _check_dense_budget(spec, "adjoint pairing",
                        _stream_bytes(d, M, _DIAGONAL, sectors={0: 1}),
                        _stream_entries(d, M, _DIAGONAL))
    table = _site_factor_table(spec, float(lam))
    adjoint = np.conjugate(table.transpose(1, 0, 2, 3))
    sectors = _SectorBuffer(_particle_counts(d, M), {0: 1})
    off_sector = 0.0
    for rows, cols, X in _product_blocks([adjoint, table], M, _DIAGONAL):
        a_dag, D = X[..., 0]
        np.subtract(a_dag, D, out=D)
        off_sector += sectors.move(D, *sectors.place(rows, cols, 0), 0, 0)
    return float(sectors.norms(0)[0] + math.sqrt(off_sector))


# ----------------------------------------------------------------------
# Continuum limit
# ----------------------------------------------------------------------

def vacuum_eigenvalue(spec: LatticeSpec, lam: complex) -> complex:
    step = spec.step
    return ((1.0 - 0.5j * lam * step) ** spec.sites
            + (1.0 + 0.5j * lam * step) ** spec.sites)


def _mul_2x2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of 2x2 matrices, as broadcast products (cheaper
    than a stacked matmul of the tiny matrices)."""
    return a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]


def one_particle_eigenvalue(spec: LatticeSpec, lam: complex,
                            momentum_index: int) -> complex:
    """Transfer eigenvalue on the one-particle plane-wave state with
    lattice momentum 2 pi n / L.

    tau commutes with the cyclic shift, so Fourier modes diagonalize the
    one-particle block B[i, j] = <e_i| tau |e_j> (e_j: the particle at
    site j + 1) exactly; the eigenvalue is a Rayleigh quotient on the
    exact eigenvector, and the residual of B v confirms it.

    B v is formed without B, in one pass over the sites for all rows at
    once.  Row i carries two running 2x2 products over the sites so far:
    ``empty``, the column config with the particle not yet placed, and
    ``placed``, the v-weighted sum over the columns whose particle is
    among those sites.  The factor of a site for row i is
    table[n_i, 0] (g0) without the column's particle there and
    table[n_i, 1] (g1) with it, so each site left-multiplies
    placed <- g0 placed + v[site] g1 empty and empty <- g0 empty:
    O(M^2) small products in place of M sites x M^2 config pairs.
    """
    M = spec.sites
    if spec.cutoff < 2:
        raise ValueError("the one-particle sector needs cutoff >= 2")
    table = _site_factor_table(spec, lam)
    vec = np.exp(2j * np.pi * momentum_index * np.arange(M) / M)
    row_occ = np.eye(M, dtype=np.intp)   # row_occ[site][i]: n_i at site
    empty = np.broadcast_to(np.eye(2, dtype=complex), (M, 2, 2))
    placed = np.zeros((M, 2, 2), dtype=complex)
    for site in range(M):
        g0, g1 = table[row_occ[site], 0], table[row_occ[site], 1]
        placed = _mul_2x2(g0, placed) + vec[site] * _mul_2x2(g1, empty)
        empty = _mul_2x2(g0, empty)
    applied = placed[:, 0, 0] + placed[:, 1, 1]   # B v
    val = (vec.conj() @ applied) / (vec.conj() @ vec)
    # confirm vec is an eigenvector, not just a stationary direction
    resid = np.linalg.norm(applied - val * vec) / np.linalg.norm(vec)
    if resid > 1e-8 * max(1.0, abs(val)):
        raise ArithmeticError(f"Fourier mode failed to diagonalize: {resid}")
    return complex(val)


def continuum_limit_rate(c: float, L: float, lam: complex,
                         site_counts: Sequence[int] = CONTINUUM_SITES) -> dict:
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
        if not any(r[key] for r in rows):
            raise ValueError(f"every {key} is 0 at box length {L!r}: no rate to fit")
        return fit_loglog_slope([(r["step"], r[key]) for r in rows])

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


def ordering_defect_rate(c: float, cutoff: int, lam: complex) -> dict:
    """Fit of the relative ordering defect against the lattice steps
    ORDERING_STEPS."""
    if cutoff < 3:  # before LatticeSpec, whose own check names d, not cutoff
        raise ValueError("need cutoff >= 3 so an occupation >= 2 exists")
    rows = []
    for step in ORDERING_STEPS:
        rep = normal_ordering_breakdown(LatticeSpec(2, cutoff, step, c), lam)
        rows.append((step, rep["relative_difference"]))
    return {"rows": rows, "order": fit_loglog_slope(rows)}
