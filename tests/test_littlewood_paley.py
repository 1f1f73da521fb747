import math

import numpy as np
import pytest

from kortorus.errors import (
    ConstraintViolationError,
    EmptyTrajectory,
    ExponentOrderViolated,
    IndexConstraintViolated,
    InvalidField,
    ResolutionTooSmall,
)
from kortorus.littlewood_paley import (
    BesovIndex,
    build_dyadic_family,
    besov_norm,
    block_lp_norms,
    chemin_lerner_norm,
    chi_profile,
    dyadic_block,
    dyadic_block_pair,
    family_for,
    heat_regularity_check,
    iterated_time_besov_norm,
    low_freq_cutoff,
    phi_profile,
    sobolev_weight_norm,
    verify_derivative_equivalence,
    verify_embedding,
    verify_product_law,
)
from kortorus.scenarios import besov_corpus
from kortorus.spectral import ScalarField, SpectralGrid, lp_norm
from helpers import max_abs

TAU = 2.0 * math.pi


class TestProfiles:
    def test_chi_plateau_and_support(self):
        r = np.array([0.0, 0.5, 1.0, 4.0 / 3.0, 2.0])
        chi = chi_profile(r)
        assert chi[0] == 1.0 and chi[1] == 1.0 and chi[2] == 1.0
        assert chi[3] == 0.0 and chi[4] == 0.0

    def test_phi_support(self):
        assert phi_profile(np.array([0.5]))[0] == 0.0
        assert phi_profile(np.array([3.0]))[0] == 0.0
        inside = phi_profile(np.linspace(1.05, 2.6, 50))
        assert np.all(inside >= 0.0) and np.all(inside <= 1.0)
        assert np.max(inside) > 0.9

    def test_values_in_unit_interval(self):
        r = np.linspace(0.0, 4.0, 1000)
        for table in (chi_profile(r), phi_profile(r)):
            assert np.all(table >= 0.0) and np.all(table <= 1.0)


class TestFamily:
    def test_active_range_res64(self):
        fam = build_dyadic_family(SpectralGrid(64))
        assert fam.q_max == 5
        # top shell must still see the lattice corner
        assert np.any(fam.phi_tables[4] > 0.0)

    def test_partition_of_unity(self):
        for grid in (SpectralGrid(64), SpectralGrid(256), SpectralGrid((32, 64))):
            fam = build_dyadic_family(grid)
            assert fam.partition_deviation() < 1e-12

    def test_support_disjointness_exact(self):
        fam = build_dyadic_family(SpectralGrid(64))
        for k in fam.q_range:
            for kp in fam.q_range:
                if abs(k - kp) >= 2:
                    assert not np.any(fam.phi_tables[k] * fam.phi_tables[kp])
        for k in range(1, fam.q_max + 1):
            assert not np.any(fam.chi_table * fam.phi_tables[k])

    def test_resolution_too_small(self):
        with pytest.raises(ResolutionTooSmall):
            build_dyadic_family(SpectralGrid(8, length=1000.0))  # tiny beta range


class TestBlocks:
    def test_single_mode_multiplier(self):
        grid = SpectralGrid(64)
        fam = family_for(grid)
        u = grid.from_function(lambda x: np.cos(5 * x))
        for q in fam.block_range:
            table_val = float(fam.multiplier(q)[5])
            block = dyadic_block(u, q)
            assert max_abs(block.data - table_val * u.data) < 1e-13

    def test_reconstruction(self):
        grid = SpectralGrid(128)
        fam = family_for(grid)
        for u in besov_corpus(grid, 3, seed=5):
            shifted = ScalarField(grid, u.data + 0.37)  # nonzero mean
            total = np.zeros(grid.shape)
            for q in fam.block_range:
                total += dyadic_block(shifted, q).data
            assert max_abs(total - shifted.data) < 1e-12

    def test_block_composition_exact_zero(self):
        grid = SpectralGrid(64)
        u = besov_corpus(grid, 1, seed=6)[0]
        for q, qp in ((0, 2), (1, 3), (-1, 1), (2, 5)):
            assert max_abs(dyadic_block_pair(u, q, qp).data) == 0.0

    def test_block_composition_adjacent_nonzero(self):
        grid = SpectralGrid(64)
        u = besov_corpus(grid, 1, seed=7)[0]
        assert max_abs(dyadic_block_pair(u, 2, 3).data) > 0.0

    def test_low_freq_cutoff_telescopes(self):
        grid = SpectralGrid(64)
        fam = family_for(grid)
        u = besov_corpus(grid, 1, seed=8)[0]
        for q in range(0, 4):
            total = np.zeros(grid.shape)
            for p in range(-1, q):
                total += dyadic_block(u, p).data
            assert max_abs(low_freq_cutoff(u, q).data - total) < 1e-12

    def test_block_l2_contraction(self):
        grid = SpectralGrid(64)
        fam = family_for(grid)
        u = besov_corpus(grid, 1, seed=9)[0]
        for q in fam.block_range:
            assert lp_norm(dyadic_block(u, q), 2.0) <= lp_norm(u, 2.0) * (1 + 1e-12)


class TestBesovNorm:
    def test_zero_field(self):
        grid = SpectralGrid(64)
        for idx in (BesovIndex(0.0), BesovIndex(1.5, 4.0, 1.0),
                    BesovIndex(-0.5, math.inf, math.inf)):
            assert besov_norm(grid.zeros(), idx) == 0.0

    def test_single_mode_hand_evaluation(self):
        grid = SpectralGrid(64)
        fam = family_for(grid)
        u = grid.from_function(np.cos)
        s, p, r = 0.7, 2.0, 2.0
        cos_lp = lp_norm(u, p)
        expected = 0.0
        for q in fam.block_range:
            tab = float(fam.multiplier(q)[1])
            if tab:
                expected += (2.0 ** (q * s) * tab * cos_lp) ** r
        expected = expected ** (1.0 / r)
        assert besov_norm(u, BesovIndex(s, p, r)) == pytest.approx(expected, rel=1e-12)

    def test_monotonicity_in_s_high_shells(self):
        # for content in shells q >= 1 the weight 2^{qs} grows with s termwise
        grid = SpectralGrid(64)
        u = grid.from_function(lambda x: np.cos(6 * x) + 0.3 * np.sin(17 * x))
        lo = besov_norm(u, BesovIndex(0.5, 2.0, 2.0))
        hi = besov_norm(u, BesovIndex(1.5, 2.0, 2.0))
        assert lo <= hi

    def test_sobolev_equivalence(self):
        grid = SpectralGrid(128)
        for u in besov_corpus(grid, 10, seed=10):
            b = besov_norm(u, BesovIndex(1.0, 2.0, 2.0))
            h = sobolev_weight_norm(u, 1.0)
            assert max(b / h, h / b) < 4.0

    def test_homogeneous_flavor_ignores_mean(self):
        grid = SpectralGrid(64)
        u = besov_corpus(grid, 1, seed=11)[0]
        shifted = ScalarField(grid, u.data + 5.0)
        idx = BesovIndex(1.0, 2.0, 2.0, flavor="homogeneous-style")
        assert besov_norm(u, idx) == pytest.approx(besov_norm(shifted, idx), rel=1e-10)

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            BesovIndex(1.0, 0.5, 2.0)
        with pytest.raises(ValueError):
            BesovIndex(1.0, 2.0, 2.0, flavor="whatever")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_non_finite_sample_rejected(self, bad, p):
        grid = SpectralGrid(64)
        fields = besov_corpus(grid, 3, seed=1)
        fields[1].data.flat[5] = bad
        idx = BesovIndex(1.0, p)
        times = [0.0, 0.5, 1.0]
        for measure in (lambda: besov_norm(fields[1], idx), lambda: block_lp_norms(fields[1], idx),
                        lambda: chemin_lerner_norm(fields, times, 2.0, idx),
                        lambda: iterated_time_besov_norm(fields, times, 2.0, idx),
                        lambda: verify_embedding(fields, 1.0, p, 2.0, 4.0, 2.0)):
            with pytest.raises(InvalidField, match="non-finite"):
                measure()


class TestCheminLerner:
    def test_time_constant_factorizes(self):
        grid = SpectralGrid(64)
        u = besov_corpus(grid, 1, seed=12)[0]
        idx = BesovIndex(0.5, 2.0, 2.0)
        T = 2.0
        times = np.linspace(0.0, T, 9)
        fields = [u] * 9
        for rho_exp in (1.0, 2.0):
            val = chemin_lerner_norm(fields, times, rho_exp, idx)
            assert val == pytest.approx(T ** (1.0 / rho_exp) * besov_norm(u, idx), rel=1e-12)
        val = chemin_lerner_norm(fields, times, math.inf, idx)
        assert val == pytest.approx(besov_norm(u, idx), rel=1e-12)

    def test_equality_when_r_equals_rho(self):
        grid = SpectralGrid(64)
        fields = besov_corpus(grid, 4, seed=13)
        times = [0.0, 0.3, 0.7, 1.0]
        idx = BesovIndex(0.8, 2.0, 2.0)
        tilde = chemin_lerner_norm(fields, times, 2.0, idx)
        iterated = iterated_time_besov_norm(fields, times, 2.0, idx)
        assert tilde == pytest.approx(iterated, rel=1e-12)

    def test_minkowski_ordering(self):
        grid = SpectralGrid(64)
        fields = besov_corpus(grid, 2, seed=14)
        times = [0.0, 1.0]
        idx_r1 = BesovIndex(0.8, 2.0, 1.0)
        tilde = chemin_lerner_norm(fields, times, math.inf, idx_r1)
        iterated = iterated_time_besov_norm(fields, times, math.inf, idx_r1)
        assert tilde >= iterated * (1 - 1e-12)  # r = 1 <= rho = inf
        idx_rinf = BesovIndex(0.8, 2.0, math.inf)
        tilde2 = chemin_lerner_norm(fields, times, 1.0, idx_rinf)
        iterated2 = iterated_time_besov_norm(fields, times, 1.0, idx_rinf)
        assert tilde2 <= iterated2 * (1 + 1e-12)  # r = inf >= rho = 1

    def test_empty_trajectory(self):
        with pytest.raises(EmptyTrajectory):
            chemin_lerner_norm([], [], 2.0, BesovIndex(0.0))

    @pytest.mark.parametrize("norm", [chemin_lerner_norm, iterated_time_besov_norm])
    def test_time_exponent_below_one_rejected(self, norm):
        fields = besov_corpus(SpectralGrid(64), 3, seed=14)
        with pytest.raises(ConstraintViolationError, match=r"rho >= 1, got 0\.5"):
            norm(fields, [0.0, 0.5, 1.0], 0.5, BesovIndex(0.0))

    @pytest.mark.parametrize("norm", [chemin_lerner_norm, iterated_time_besov_norm])
    @pytest.mark.parametrize("rho", [2.0, math.inf])
    @pytest.mark.parametrize("n_times", [2, 6])
    def test_one_time_a_snapshot(self, norm, rho, n_times):
        # 2 times for 5 snapshots once broadcast np.trapezoid's one spacing
        fields = besov_corpus(SpectralGrid(64), 5, seed=1)
        with pytest.raises(ConstraintViolationError,
                           match=f"one time a snapshot, got {n_times} times for 5 snapshots"):
            norm(fields, np.linspace(0.0, 1.0, n_times), rho, BesovIndex(1.0))


class TestVerifiers:
    def test_derivative_equivalence_single_shell_mode(self):
        grid = SpectralGrid(128)
        u = grid.from_function(lambda x: np.cos(12 * x))  # well inside one shell
        rep = verify_derivative_equivalence([u], s=1.0, p=2.0, r=2.0)
        # multiplier bounds: the mode magnitude 12 is the exact ratio up to
        # shell-overlap weighting, so the ratio stays within the shell span
        assert 0.3 < rep.min_ratio and rep.max_ratio < 3.4

    def test_derivative_equivalence_corpus(self):
        grid = SpectralGrid(128)
        rep = verify_derivative_equivalence(besov_corpus(grid, 100, seed=15),
                                            s=1.0, p=2.0, r=2.0)
        assert rep.n_fields == 100 and rep.n_excluded == 0
        assert 0.1 <= rep.min_ratio and rep.max_ratio <= 10.0
        assert rep.constant < 10.0

    def test_derivative_equivalence_excludes_constants(self):
        grid = SpectralGrid(64)
        rep = verify_derivative_equivalence([grid.constant(3.0)], 1.0, 2.0, 2.0)
        assert rep.n_excluded == 1 and rep.n_fields == 0

    def test_embedding_identity_is_one(self):
        grid = SpectralGrid(64)
        rep = verify_embedding(besov_corpus(grid, 5, seed=16), 1.0, 2.0, 2.0, 2.0, 2.0)
        assert rep.worst_constant == pytest.approx(1.0, rel=1e-12)

    def test_embedding_single_mode_bernstein(self):
        # one mode at |beta| ~ 2^q: the L2 -> Linf embedding constant is the
        # Bernstein factor 2^{q N/2} normalized by the domain measure
        grid = SpectralGrid(128)
        q = 4
        u = grid.from_function(lambda x: np.cos((2 ** q) * x))
        rep = verify_embedding([u], 1.0, 2.0, 2.0, math.inf, 2.0)
        shift = 1.0 * (1.0 / 2.0 - 0.0)
        src = besov_norm(u, BesovIndex(1.0, 2.0, 2.0))
        tgt = besov_norm(u, BesovIndex(1.0 - shift, math.inf, 2.0))
        assert rep.worst_constant == pytest.approx(tgt / src, rel=1e-12)
        bernstein = 2.0 ** (q / 2.0) / math.sqrt(math.pi)  # 1/||cos||_L2 factor
        assert rep.worst_constant < 3.0 * bernstein

    def test_embedding_index_constraint(self):
        grid = SpectralGrid(64)
        with pytest.raises(IndexConstraintViolated):
            verify_embedding(besov_corpus(grid, 1, seed=17), 1.0, 4.0, 2.0, 2.0, 2.0)
        with pytest.raises(IndexConstraintViolated):
            verify_embedding(besov_corpus(grid, 1, seed=17), 1.0, 2.0, 2.0, 4.0, 1.0)

    def test_product_law_with_unit_factor(self):
        grid = SpectralGrid(64)
        u = besov_corpus(grid, 1, seed=18)[0]
        rep = verify_product_law([(u, grid.constant(1.0))], 1.0, 2.0, 2.0)
        assert rep.worst_constant <= 2.0

    def test_product_law_cos_squared_hand_value(self):
        grid = SpectralGrid(64)
        u = grid.from_function(np.cos)
        idx = BesovIndex(1.0, 2.0, 2.0)
        from kortorus.spectral import dealiased_product
        lhs = besov_norm(dealiased_product(u, u), idx)
        bound = 2.0 * lp_norm(u, math.inf) * besov_norm(u, idx)
        rep = verify_product_law([(u, u)], 1.0, 2.0, 2.0)
        assert rep.worst_constant == pytest.approx(lhs / bound, rel=1e-12)

    def test_product_law_corpus(self):
        grid = SpectralGrid(128)
        corpus = besov_corpus(grid, 100, seed=19)
        rep = verify_product_law(list(zip(corpus[:50], corpus[50:])), 1.0, 2.0, 2.0)
        assert math.isfinite(rep.worst_constant) and rep.n_cases == 50


class TestHeat:
    def test_single_mode_decay_bounded_by_initial(self):
        grid = SpectralGrid(64)
        u0 = grid.from_function(np.cos)
        rep = heat_regularity_check(u0, None, 1.0, 0.5, 2.0, 2.0,
                                    math.inf, math.inf, 1.0)
        assert rep.constant <= 1.0 + 1e-12  # sup in time is the initial datum

    def test_single_mode_closed_form(self):
        grid = SpectralGrid(64)
        fam = family_for(grid)
        mu, T = 0.7, 1.3
        u0 = grid.from_function(np.cos)
        rep = heat_regularity_check(u0, None, mu, 0.0, 2.0, 2.0, 1.0, 1.0, T)
        shell_time = (1.0 - math.exp(-mu * T)) / mu
        oracle = 0.0
        for q in fam.block_range:
            tab = float(fam.multiplier(q)[1])
            if tab:
                oracle += (2.0 ** (2.0 * q) * tab * math.sqrt(math.pi) * shell_time) ** 2
        oracle = math.sqrt(oracle)
        assert abs(rep.lhs - oracle) / oracle < 1e-10

    def test_forced_constant_finite_and_stable(self):
        grid = SpectralGrid(64)
        u0 = besov_corpus(grid, 1, seed=20)[0]
        f = besov_corpus(grid, 1, seed=21)[0]
        consts = []
        for n_time in (65, 129):
            rep = heat_regularity_check(u0, f, 0.5, 1.0, 2.0, 2.0, 2.0, 1.0, 1.0,
                                        n_time=n_time)
            consts.append(rep.constant)
        assert all(math.isfinite(c) for c in consts)
        assert max(consts) / min(consts) < 1.15

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("where", ["u0", "field forcing", "callable forcing"])
    def test_non_finite_datum_rejected(self, bad, where):
        # unchecked, a NaN sample gave HeatReport(lhs=nan, rhs=nan, constant=nan)
        grid = SpectralGrid(64)
        u0, f = besov_corpus(grid, 2, seed=1)
        target = {"u0": u0, "field forcing": f, "callable forcing": f}[where]
        target.data.flat[5] = bad
        forcing = (lambda t: f.data) if where == "callable forcing" else f
        with pytest.raises(InvalidField, match="non-finite"):
            heat_regularity_check(u0, forcing, 0.5, 1.0, 2.0, 2.0, 2.0, 1.0, 1.0, n_time=9)

    def test_exponent_order_enforced(self):
        grid = SpectralGrid(64)
        with pytest.raises(ExponentOrderViolated):
            heat_regularity_check(grid.zeros(), None, 1.0, 0.0, 2.0, 2.0, 1.0, 2.0, 1.0)

    # unchecked, T = -1 overflows to a constant of 0.0, n_time = 1 indexes
    # past the time grid and mu = 0 returns a number
    @pytest.mark.parametrize("mu, T, n_time, fragment", [
        (1.0, -1.0, 65, r"T > 0, got -1\.0"),
        (1.0, 1.0, 1, "n_time >= 2, got 1"),
        (0.0, 1.0, 65, r"mu > 0, got 0\.0"),
    ], ids=["T", "n_time", "mu"])
    def test_arguments_checked(self, mu, T, n_time, fragment):
        u0 = SpectralGrid(64).from_function(np.cos)
        with pytest.raises(ConstraintViolationError, match=fragment):
            heat_regularity_check(u0, None, mu, 0.0, 2.0, 2.0, 1.0, 1.0, T, n_time=n_time)


class TestAlmostOrthogonality:
    def test_l2_factor(self):
        grid = SpectralGrid(128)
        fam = family_for(grid)
        for u in besov_corpus(grid, 5, seed=22):
            l2_sq = lp_norm(u, 2.0) ** 2
            block_sq = sum(lp_norm(dyadic_block(u, q), 2.0) ** 2
                           for q in fam.block_range)
            factor = max(l2_sq / block_sq, block_sq / l2_sq)
            assert factor <= 3.0
