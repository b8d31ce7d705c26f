"""Lattice operators, exchange relation, commutativity, continuum limit."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnls import lattice as lat
from qnls.cli import main
from qnls.errors import CutoffTooSmall, RMatrixPole, SizeLimit
from qnls.transfer import theta

BOX_L = 2.0 * math.pi


# ----------------------------------------------------------------------
# Reference engines: the site operators as d x d matrices, one 2x2
# product per config pair and site, and the monodromy from
# Kronecker-embedded site operators and dense products
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
                prod = prod @ ms
            else:
                out[i, j] = np.trace(prod)
    return out


def reference_embed(op, site, spec):
    out = np.eye(1, dtype=complex)
    for n in range(spec.sites, 0, -1):
        out = np.kron(out, op if n == site
                      else np.eye(spec.cutoff, dtype=complex))
    return out


def reference_monodromy(spec, lam, rho_override=None):
    eye = np.eye(spec.cutoff ** spec.sites, dtype=complex)
    T = [[eye, np.zeros_like(eye)], [np.zeros_like(eye), eye]]
    for site in range(1, spec.sites + 1):
        blocks = site_l_blocks(spec, lam, rho=rho_override)
        L = [[reference_embed(blocks[r][s], site, spec) for s in range(2)]
             for r in range(2)]
        T = [[L[r][0] @ T[0][s] + L[r][1] @ T[1][s] for s in range(2)]
             for r in range(2)]
    return T


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


spectral = st.builds(complex, st.floats(-2, 2), st.floats(-1, 1))


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
        steps = [0.2 / 2 ** k for k in range(5)]
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

    def test_sector_engine_empty_config_list(self):
        out = lat.tau_sector_matrix(lat.LatticeSpec(3, 4, 0.3, 1.0), 0.7, [])
        assert out.shape == (0, 0)

    def test_sector_engine_rejects_occupation_above_cutoff(self):
        with pytest.raises(ValueError):
            lat.tau_sector_matrix(lat.LatticeSpec(2, 2, 0.3, 1.0), 0.7,
                                  [(2, 0), (1, 1)])

    @given(monodromy_cases())
    @settings(max_examples=50, deadline=None)
    def test_contracted_monodromy_matches_dense(self, case):
        spec, lam, rho = case
        fast = lat.monodromy(spec, lam, rho_override=rho)
        dense = reference_monodromy(spec, lam, rho_override=rho)
        for r in range(2):
            for s in range(2):
                np.testing.assert_allclose(fast[r][s], dense[r][s], rtol=1e-13)


class TestDenseBudget:
    def test_rejects_by_bytes_before_allocating(self):
        spec = lat.LatticeSpec(7, 4, 0.3, 1.0)   # 3^7 kept states
        need = lat.dense_bytes(spec, 0, lat.RTT_KEPT_BLOCKS)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimit) as err:
                lat.rtt_residual(0.7, 1.3, spec)
            with pytest.raises(SizeLimit):
                lat.monodromy(spec, 0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert str(need) in str(err.value)
        assert str(lat.DENSE_BUDGET_BYTES) in str(err.value)

    def test_cli_rtt_rejected(self, capsys):
        code = main(["lattice", "rtt", "--sites", "7", "--cutoff", "4",
                     "--step", "0.3", "--coupling", "1.0"])
        assert code == 1
        assert "bytes" in capsys.readouterr().err

    def test_suite_and_sweep_sizes_fit(self):
        # the suite goes up to 3 sites at cutoff 4; the benchmark sweep
        # runs the exchange relation at 4^4 and monodromy at 4^5; the
        # exchange relation fits up to 6 sites at cutoff 4
        rtt = [lat.dense_bytes(lat.LatticeSpec(m, d, 0.3, 1.0), 0,
                               lat.RTT_KEPT_BLOCKS)
               for m, d in ((4, 4), (6, 4), (8, 3))]
        mono = lat.dense_bytes(lat.LatticeSpec(5, 4, 0.3, 1.0),
                               lat.MONODROMY_BLOCKS)
        assert max(*rtt, mono) <= lat.DENSE_BUDGET_BYTES

    @pytest.mark.parametrize("sites, cutoff", [(4, 4), (3, 6), (2, 12)])
    def test_block_counts_bound_peak_memory(self, sites, cutoff):
        spec = lat.LatticeSpec(sites, cutoff, 0.3, 1.0)
        runs = [
            (lambda: lat.monodromy(spec, 0.7 - 0.2j),
             lat.dense_bytes(spec, lat.MONODROMY_BLOCKS)),
            (lambda: lat.rtt_residual(0.7 - 0.2j, -0.4 + 0.5j, spec),
             lat.dense_bytes(spec, 0, lat.RTT_KEPT_BLOCKS)),
        ]
        peaks = []
        for run, need in runs:
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            # headroom for the Python objects and the d x d site tables
            assert peaks[-1] <= need + 2 ** 16
        # the kept-block count is the exchange relation's real peak
        assert runs[1][1] <= 1.25 * peaks[1]


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
        rep = lat.ordering_defect_rate(1.5, 3, [0.2 / 2 ** k for k in range(5)],
                                       0.7)
        assert rep["order"] == pytest.approx(2.0, abs=0.25)
