import io
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from kortorus import cli
from kortorus.config import parse_config
from kortorus.errors import (
    ConstraintViolationError,
    DeltaOutOfRange,
    EmptyTrajectory,
    PExponentOutOfRange,
    PositivityLoss,
    ScalingPairInvalid,
)
from kortorus.functionals import (
    COLUMNS,
    MonitorSpec,
    ReportTable,
    bd_entropy,
    blow_up_verdict,
    effective_energy,
    effective_energy_dissipation,
    energy,
    evaluate_report,
    evaluate_reports,
    integrability_functional,
    mv_entropy,
    quartic_forms,
    serrin_accumulator,
    vacuum_functional,
    vacuum_indicator,
)
from kortorus.model import FieldState, ModelParams, effective_velocity
from kortorus.scenarios import density_corpus, initial_state, velocity_corpus
from kortorus.spectral import (
    ScalarField,
    SpectralGrid,
    VectorField,
    integrate,
    vector_gradient,
)
from kortorus.timestepping import IntegratorConfig, Trajectory, run
from helpers import (README, dense_quadrature_1d, max_abs, quartic_direct_einsum,
                     readme_blocks, rel_linf, report_peak_mb)
from report_reference import bitwise, public_columns, reference_report

TAU = 2.0 * math.pi
P_V2 = ModelParams(mu=1.0, alpha=0.0, kappa=1.0, a=1.0, gamma=2.0, variant="effective_v2")
P_ORIG = ModelParams(mu=1.0, alpha=0.4, kappa=0.8, a=1.0, gamma=2.0, variant="original")
P_V1 = ModelParams(mu=1.0, alpha=0.8, kappa=0.8, a=1.5, gamma=1.4, variant="effective_v1")


def state_1d(rho_fn, v_fn=None, grid=None):
    grid = grid or SpectralGrid(128)
    rho = grid.from_function(rho_fn)
    if v_fn is None:
        w = grid.zero_vector()
    else:
        w = VectorField(grid, grid.from_function(v_fn).data[None])
    return FieldState(rho, w)


class TestEnergy:
    def test_rest_state_pressure_only(self):
        st = state_1d(lambda x: np.ones_like(x))
        en = energy(st, P_V2)
        assert en.kinetic == pytest.approx(0.0)
        assert en.capillary == pytest.approx(0.0)
        assert en.pressure == pytest.approx(TAU)
        assert en.total == pytest.approx(TAU)

    def test_constant_velocity_2d(self):
        grid = SpectralGrid((32, 32))
        w = VectorField(grid, np.stack([np.ones(grid.shape), np.zeros(grid.shape)]))
        st = FieldState(grid.constant(1.0), w)
        en = energy(st, P_ORIG)
        assert en.kinetic == pytest.approx(grid.volume)

    def test_capillary_two_assemblies(self):
        # kappa int |grad sqrt(rho)|^2 == kappa int (rho/4) |grad ln rho|^2
        grid = SpectralGrid(256)
        st = state_1d(lambda x: np.exp(np.sin(x)), grid=grid)
        en = energy(st, P_V2)
        from kortorus.spectral import gradient
        ln = ScalarField(grid, np.log(st.rho.data))
        alt = P_V2.kappa * integrate(ScalarField(
            grid, 0.25 * st.rho.data * np.sum(gradient(ln).data ** 2, axis=0)))
        assert abs(en.capillary - alt) < 1e-10 * max(1.0, abs(alt))

    def test_change_of_variables_consistency(self):
        # the same physical state measured through (rho, u) or through the
        # effective state (rho, v) gives identical numbers
        grid = SpectralGrid(128)
        rho = density_corpus(grid, 1, seed=1, lo=1.0, hi=2.0)[0]
        u = velocity_corpus(grid, 1, seed=2)[0]
        p1 = ModelParams(mu=1.0, alpha=0.5, kappa=0.5, a=1.0, gamma=2.0,
                         variant="effective_v1")
        en_orig = energy(FieldState(rho, u), p1.with_variant("original"))
        v = effective_velocity(rho, u, p1)
        en_eff = energy(FieldState(rho, v), p1)
        assert abs(en_orig.total - en_eff.total) < 1e-10 * en_orig.total

    def test_gamma_one_uses_potential(self):
        params = ModelParams(mu=1.0, alpha=0.0, kappa=1.0, a=1.0, gamma=1.0)
        st = state_1d(lambda x: np.ones_like(x))
        assert energy(st, params).pressure == pytest.approx(0.0)


class TestBDEntropy:
    @pytest.mark.parametrize("params", [P_V2, P_ORIG])
    def test_value_is_the_energy_total(self, params):
        st = state_1d(lambda x: 1.0 + 0.2 * np.sin(x), lambda x: 0.3 * np.cos(x))
        assert bd_entropy(st, params).value == energy(st, params).total

    def test_equilibrium_rates_vanish(self):
        st = state_1d(lambda x: np.ones_like(x) * 1.4)
        bd = bd_entropy(st, P_V2)
        assert bd.viscous_rate == pytest.approx(0.0)
        assert bd.cross_rate == pytest.approx(0.0)
        assert bd.capillary_rate == pytest.approx(0.0)

    def test_cross_term_direct_quadrature(self):
        grid = SpectralGrid(128)
        st = state_1d(lambda x: 1.0 + 0.2 * np.sin(x), grid=grid)
        bd = bd_entropy(st, P_V2)
        from kortorus.spectral import gradient
        direct = P_V2.a * P_V2.gamma * integrate(ScalarField(
            grid, st.rho.data ** (P_V2.gamma - 2.0)
            * np.sum(gradient(st.rho).data ** 2, axis=0)))
        assert abs(bd.cross_rate - direct) < 1e-12 * max(1.0, direct)
        assert bd.cross_rate >= 0.0

    def test_capillary_rate_scalar_quadrature(self):
        # rho = exp(eps sin x): kappa int rho (d_xx ln rho)^2
        #     = kappa eps^2 int e^{eps sin x} sin^2 x dx
        eps = 0.3
        grid = SpectralGrid(256)
        st = state_1d(lambda x: np.exp(eps * np.sin(x)), grid=grid)
        bd = bd_entropy(st, P_V2)
        oracle = P_V2.kappa * eps ** 2 * dense_quadrature_1d(
            lambda x: np.exp(eps * np.sin(x)) * np.sin(x) ** 2, TAU)
        assert abs(bd.capillary_rate - oracle) < 1e-8 * oracle

    def test_dissipation_terms_nonnegative(self):
        grid = SpectralGrid(64)
        for seed in range(3):
            rho = density_corpus(grid, 1, seed=seed, lo=1.0, hi=2.5)[0]
            w = velocity_corpus(grid, 1, seed=seed + 50)[0]
            bd = bd_entropy(FieldState(rho, w), P_V2)
            assert bd.viscous_rate >= 0.0
            assert bd.cross_rate >= 0.0
            assert bd.capillary_rate >= 0.0


class TestMVEntropy:
    def test_zero_velocity(self):
        st = state_1d(lambda x: 1.0 + 0.1 * np.sin(x))
        mv = mv_entropy(st, P_V2, 0.5)
        assert mv.value == pytest.approx(0.0)
        assert mv.dissipation_rate == pytest.approx(0.0)
        assert mv.rhs_bound == pytest.approx(0.0)

    def test_constant_velocity_formula(self):
        delta = 0.5
        grid = SpectralGrid(64)
        c = 2.0
        st = FieldState(grid.constant(1.0),
                        VectorField(grid, np.full((1,) + grid.shape, c)))
        mv = mv_entropy(st, P_V2, delta)
        assert mv.value == pytest.approx(TAU * c ** (2 + delta) / (2 + delta))
        assert mv.dissipation_rate == pytest.approx(0.0)

    def test_delta_range(self):
        st = state_1d(lambda x: np.ones_like(x))
        for bad in (0.0, 2.0, -0.5, 2.5):
            with pytest.raises(DeltaOutOfRange):
                mv_entropy(st, P_V2, bad)

    def test_refinement_residual_first_order(self):
        # along a discrete trajectory the rate-form inequality
        # (M_{k+1} - M_k)/dt + dissipation <= rhs_bound + residual
        # holds with residual -> 0 at first order in dt
        grid = SpectralGrid(64)
        st = initial_state(grid, "random_smooth",
                           {"mean": 1.2, "amplitude": 0.25,
                            "velocity_amplitude": 0.3, "modes": 3}, seed=3)
        residuals = []
        for dt in (4e-3, 2e-3):
            cfg = IntegratorConfig(dt_initial=dt, dt_min=1e-12, t_end=0.5,
                                   adaptive=False)
            traj = run(st, P_V2, cfg)
            viol = []
            for k in range(len(traj.reports) - 1):
                r0, r1 = traj.reports[k], traj.reports[k + 1]
                step = r1.time - r0.time
                lhs = (r1.mv_value - r0.mv_value) / step + r0.mv_rate_dissipation
                viol.append(lhs - r0.mv_rhs_bound)
            residuals.append(max(0.0, max(viol)))
        assert residuals[1] <= 0.5 * residuals[0] + 1e-12


class TestIntegrability:
    def test_zero_velocity(self):
        st = state_1d(lambda x: 1.0 + 0.1 * np.sin(x))
        out = integrability_functional(st, P_V2, 4.0)
        assert out.value == pytest.approx(0.0)
        assert out.grad_rate == pytest.approx(0.0)
        assert out.quartic_rate == pytest.approx(0.0)

    def test_two_quartic_assemblies_agree(self):
        grid = SpectralGrid((64, 64))
        w = VectorField(grid, np.stack([
            np.sin(grid.meshgrid()[0]), np.zeros(grid.shape)]))
        st = FieldState(grid.constant(1.0), w)
        out = integrability_functional(st, P_V2, 4.0)
        # rho = 1 and p = 4: the rate is (p - 2) times the form's integral
        for form in quartic_forms(w):
            assert abs(out.quartic_rate - 2.0 * integrate(ScalarField(grid, form))) \
                < 1e-12 * max(1.0, abs(out.quartic_rate))

    def test_quartic_forms_pointwise_identity(self):
        grid = SpectralGrid((64, 64))
        for v in velocity_corpus(grid, 3, seed=4, amplitude=1.0, kmax=4):
            direct, identity = quartic_forms(v)
            assert max_abs(direct - identity) < 1e-12

    @pytest.mark.parametrize("resolution", [64, (32, 32)])
    def test_quartic_direct_form_matches_quadruple_einsum(self, resolution):
        grid = SpectralGrid(resolution)
        for v in velocity_corpus(grid, 3, seed=9, amplitude=1.0, kmax=4):
            direct, _ = quartic_forms(v)
            reference = quartic_direct_einsum(v.data, vector_gradient(v).data)
            assert rel_linf(direct, reference) < 1e-13

    def test_p_range(self):
        st = state_1d(lambda x: np.ones_like(x))
        with pytest.raises(PExponentOutOfRange):
            integrability_functional(st, P_V2, 2.0)

    def test_p3_handles_velocity_zeros(self):
        # |v|^{p-4} is singular at zeros of v for p < 4; the weighted rates
        # stay finite because the quartic forms vanish quadratically there
        st = state_1d(lambda x: 1.0 + 0.1 * np.sin(x), v_fn=np.sin)
        out = integrability_functional(st, P_V2, 3.0)
        assert math.isfinite(out.quartic_rate)
        assert out.quartic_rate >= 0.0

    def test_sup_bound_constant_stable_under_refinement(self):
        # sup_t A(t) <= C (1 + sqrt(T) (sup_t A)^{1-1/p} ||rho||^{1/p})
        # with the fitted C stable when dt is halved
        from kortorus.functionals import integrability_accumulated

        grid = SpectralGrid(64)
        st = initial_state(grid, "random_smooth",
                           {"mean": 1.2, "amplitude": 0.2,
                            "velocity_amplitude": 0.4, "modes": 3}, seed=5)
        p = 4.0
        T = 0.5
        consts = []
        for dt in (4e-3, 2e-3):
            cfg = IntegratorConfig(dt_initial=dt, dt_min=1e-12, t_end=T,
                                   adaptive=False)
            traj = run(st, P_V2, cfg)
            a_series = integrability_accumulated(traj)
            sup_a = float(np.max(a_series))
            mass_sup = max(r.mass for r in traj.reports)
            bound = 1.0 + math.sqrt(T) * sup_a ** (1.0 - 1.0 / p) * mass_sup ** (1.0 / p)
            consts.append(sup_a / bound)
        assert all(math.isfinite(c) for c in consts)
        assert max(consts) / min(consts) < 2.0


class TestVacuumFunctional:
    def test_unit_density(self):
        st = state_1d(lambda x: np.ones_like(x))
        out = vacuum_functional(st, P_V2, 2.0)
        assert out.value == pytest.approx(TAU)
        assert out.rate == pytest.approx(0.0)
        assert out.identity_residual == pytest.approx(0.0)

    def test_identity_residual_smooth_density(self):
        grid = SpectralGrid(256)
        st = state_1d(lambda x: 2.0 + np.sin(x), grid=grid)
        out = vacuum_functional(st, P_V2, 3.0)
        assert out.identity_residual < 1e-8

    def test_identity_residual_spectral_convergence(self):
        resids = []
        for res in (32, 64):
            grid = SpectralGrid(res)
            rho = density_corpus(grid, 1, seed=6, lo=1.0, hi=3.0)[0]
            st = FieldState(rho, grid.zero_vector())
            resids.append(vacuum_functional(st, P_V2, 3.0).identity_residual)
        assert resids[1] < resids[0] / 100.0

    def test_monotone_in_vacuum_depth(self):
        grid = SpectralGrid(128)
        values = []
        for squeeze in (0.5, 0.7, 0.9):
            st = state_1d(lambda x: 1.0 + squeeze * np.sin(x), grid=grid)
            values.append(vacuum_functional(st, P_V2, 2.0).value)
        assert values[0] < values[1] < values[2]

    def test_p_range(self):
        st = state_1d(lambda x: np.ones_like(x))
        with pytest.raises(PExponentOutOfRange):
            vacuum_functional(st, P_V2, 1.5)


class TestSerrin:
    def _trajectory(self, fields, times, params=P_V2):
        states = [FieldState(f.rho, f.w, time=t) for f, t in zip(fields, times)]
        return Trajectory(params=params, states=states)

    def test_zero_velocity(self):
        st = state_1d(lambda x: np.ones_like(x))
        traj = self._trajectory([st, st, st], [0.0, 0.5, 1.0])
        traj.states = [FieldState(s.rho, s.w, t)
                       for s, t in zip(traj.states, [0.0, 0.5, 1.0])]
        assert serrin_accumulator(traj, 4.0, 2.0) == pytest.approx(0.0)

    def test_constant_velocity_formula(self):
        grid = SpectralGrid(64)
        c, T = 1.5, 2.0
        st = FieldState(grid.constant(1.0),
                        VectorField(grid, np.full((1,) + grid.shape, c)))
        times = [0.0, 0.4, 1.1, T]
        traj = self._trajectory([st] * 4, times)
        # ||v||_Lq = c |T^1|^{1/q}; accumulated over [0, T]
        q = 2.0
        expected = (c * TAU ** (1 / q)) ** 4.0 * T
        assert serrin_accumulator(traj, 4.0, q) == pytest.approx(expected, rel=1e-12)

    def test_quadrature_oracle_2d(self):
        grid = SpectralGrid((32, 32))
        params = P_V2
        times = [0.0, 0.3, 0.8, 1.0]
        fields = []
        for k, t in enumerate(times):
            w = velocity_corpus(grid, 1, seed=30 + k, amplitude=0.5)[0]
            fields.append(FieldState(grid.constant(1.0), w, time=t))
        traj = Trajectory(params=params, states=fields)
        from kortorus.spectral import lp_norm
        norms = [lp_norm(s.w, 4.0) ** 4.0 for s in fields]
        oracle = np.trapezoid(norms, x=times)
        assert serrin_accumulator(traj, 4.0, 4.0) == pytest.approx(oracle, rel=1e-12)

    def test_scaling_validation(self):
        st = state_1d(lambda x: np.ones_like(x))
        traj = self._trajectory([st, st], [0.0, 1.0])
        with pytest.raises(ScalingPairInvalid):
            serrin_accumulator(traj, 4.0, 3.0)  # violates the N = 1 scaling
        with pytest.raises(ScalingPairInvalid):
            serrin_accumulator(traj, math.inf, 1.0)


class TestVacuumIndicator:
    def test_empty_region(self):
        st = state_1d(lambda x: np.ones_like(x))
        assert vacuum_indicator(st, 0.5, 0.1) == 0.0

    def test_constant_low_density(self):
        grid = SpectralGrid(64)
        st = FieldState(grid.constant(0.05), grid.zero_vector())
        assert vacuum_indicator(st, 0.5, 0.1) == pytest.approx(TAU * 0.05 ** -0.5)

    def test_against_dense_quadrature(self):
        grid = SpectralGrid(512)
        eps, delta = 0.01, 0.1
        rho_fn = lambda x: 0.2 + 0.19 * np.sin(x)
        st = state_1d(rho_fn, grid=SpectralGrid(512))
        val = vacuum_indicator(st, eps, delta)
        oracle = dense_quadrature_1d(
            lambda x: np.where(rho_fn(x) <= delta, rho_fn(x) ** -eps, 0.0), TAU)
        # sharp-indicator quadrature error: O(h) from the region endpoints
        h = grid.spacing[0]
        bound = 4.0 * h * delta ** -eps
        assert abs(val - oracle) < bound

    def test_parameter_validation(self):
        st = state_1d(lambda x: np.ones_like(x))
        with pytest.raises(ValueError):
            vacuum_indicator(st, -0.1, 0.1)
        with pytest.raises(ValueError):
            vacuum_indicator(st, 0.1, 1.5)


class TestEffectiveEnergy:
    def test_dissipation_nonnegative(self):
        grid = SpectralGrid(64)
        rho = density_corpus(grid, 1, seed=40, lo=1.0, hi=2.0)[0]
        w = velocity_corpus(grid, 1, seed=41)[0]
        visc, press = effective_energy_dissipation(FieldState(rho, w), P_V2)
        assert visc >= 0.0 and press >= 0.0

    def test_value_composition(self):
        grid = SpectralGrid(64)
        st = FieldState(grid.constant(1.0), grid.zero_vector())
        # Pi(1) = a/(gamma-1) = 1 over the volume
        assert effective_energy(st, P_V2) == pytest.approx(TAU)


class TestReportAndVerdict:
    def test_report_fields_finite(self):
        grid = SpectralGrid(64)
        st = initial_state(grid, "random_smooth",
                           {"mean": 1.3, "amplitude": 0.2,
                            "velocity_amplitude": 0.2}, seed=7)
        rep = evaluate_report(st, P_V2, MonitorSpec())
        assert rep.diverged == ()
        assert rep.mass == pytest.approx(integrate(st.rho))
        out = io.StringIO()
        cli._write_csv(out, evaluate_reports([st], P_V2, MonitorSpec()))
        header, row = out.getvalue().splitlines()
        assert len(row.split(",")) == len(header.split(",")) == len(COLUMNS)

    def test_readme_report_memory_figure(self):
        figure, args = re.search(r"peak is \+([\d.]+) MB\s+\(`report_peak_mb\(([\d, ]+)\)`",
                                 README).groups()
        assert f"{report_peak_mb(*map(int, args.split(','))):.2f}" == figure

    def test_overflowed_columns_reported_as_diverged(self):
        # min rho = 1e-7 is above the floor, but rho^(1-p) overflows at p = 50
        grid = SpectralGrid(32)
        rho = grid.from_function(lambda x: 1.0 + (1.0 - 1e-7) * np.sin(x))
        with np.errstate(over="ignore", invalid="ignore"):
            rep = evaluate_report(FieldState(rho, grid.zero_vector()), P_V2,
                                  MonitorSpec(p_vacuum=50.0))
        assert "vac_value" in rep.diverged
        assert set(rep.diverged) == {name for name in COLUMNS
                                     if not math.isfinite(getattr(rep, name))}
        assert math.isfinite(rep.energy_total) and "energy_total" not in rep.diverged

    def test_overflow_raises_no_warning(self):
        grid = SpectralGrid(32)
        rho = grid.from_function(lambda x: 1.0 + (1.0 - 1e-7) * np.sin(x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = evaluate_report(FieldState(rho, grid.zero_vector()), P_V2,
                                  MonitorSpec(p_vacuum=50.0))
        assert {"vac_value", "vac_rate", "vac_identity_residual"} <= set(rep.diverged)

    @pytest.mark.parametrize("params,resolution", [(P_V2, 64), (P_V2, (32, 32)), (P_ORIG, 64),
                                                   (P_ORIG, (32, 32)), (P_V1, 64),
                                                   (P_V1, (32, 32))])
    def test_columns_equal_standalone_functionals(self, params, resolution):
        # a bare state, a spec away from its defaults, alpha > 0 outside effective_v2
        st = initial_state(SpectralGrid(resolution), "random_smooth",
                           {"mean": 0.9, "amplitude": 0.2,
                            "velocity_amplitude": 0.4}, seed=11)
        spec = MonitorSpec(delta=0.7, p_integrability=5.0, p_vacuum=3.0, serrin_p=6.0,
                           epsilon=0.5, delta_vacuum=0.9)
        rep = evaluate_report(st, params, spec)
        assert rep.vacuum_indicator > 0.0
        expected = reference_report(st, params, spec)
        assert {name: getattr(rep, name) for name in expected} == expected
        public = public_columns(st, params, spec)
        assert public == {name: expected[name] for name in public}

    @pytest.mark.parametrize("params", [P_V2, P_ORIG])
    def test_overflowed_columns_equal_standalone_functionals(self, params):
        grid = SpectralGrid(32)
        rho = grid.from_function(lambda x: 1.0 + (1.0 - 1e-7) * np.sin(x))
        st = FieldState(rho, VectorField(grid, 0.3 * np.cos(grid.meshgrid()[0])[None]))
        spec = MonitorSpec(p_vacuum=50.0)
        rep = evaluate_report(st, params, spec)
        expected = reference_report(st, params, spec)
        assert bitwise({name: getattr(rep, name) for name in expected}) == bitwise(expected)
        assert set(rep.diverged) == {name for name, x in expected.items()
                                     if not math.isfinite(x)}
        assert "vac_value" in rep.diverged
        with warnings.catch_warnings():  # every view overflows without a numpy warning
            warnings.simplefilter("error")
            public = public_columns(st, params, spec)
        assert bitwise(public) == bitwise({name: expected[name] for name in public})

    def test_monitor_serrin_default_pair(self):
        spec = MonitorSpec(serrin_p=4.0)
        assert spec.serrin_pair(1) == (4.0, pytest.approx(2.0))
        assert spec.serrin_pair(2) == (4.0, pytest.approx(4.0))

    @pytest.mark.parametrize("serrin_q", [0.5, math.inf, 0.0, -4.0, 3.0])
    def test_serrin_q_admitted_in_no_dimension_rejected(self, serrin_q):
        with pytest.raises(ConstraintViolationError) as err:
            MonitorSpec(serrin_p=4.0, serrin_q=serrin_q)
        (violation,) = err.value.violations
        assert "monitors.serrin_q must satisfy 1/p + N/(2q) = 1/2" in violation
        assert f"got {serrin_q}" in violation

    def test_bad_serrin_p_reported_once(self):
        with pytest.raises(ConstraintViolationError) as err:
            MonitorSpec(serrin_p=math.inf, serrin_q=0.5)
        (violation,) = err.value.violations
        assert "monitors.serrin_p" in violation

    def test_serrin_pair_checked_in_the_grid_dimension(self):
        spec = MonitorSpec(serrin_p=4.0, serrin_q=4.0)  # admissible in 2D only
        assert spec.serrin_pair(2) == (4.0, 4.0)
        with pytest.raises(ScalingPairInvalid, match="in dimension 1"):
            spec.serrin_pair(1)

    def test_run_rejects_a_pair_of_another_dimension_before_any_step(self):
        st = state_1d(lambda x: 1.0 + 0.1 * np.sin(x))
        cfg = IntegratorConfig(dt_initial=1e-3, dt_min=1e-9, t_end=0.01)
        traj = Trajectory(params=P_V2)
        with pytest.raises(ScalingPairInvalid, match="in dimension 1"):
            run(st, P_V2, cfg, MonitorSpec(serrin_p=4.0, serrin_q=4.0), trajectory=traj)
        assert len(traj.reports) == 0 and [s.time for s in traj.states] == [0.0]

    def test_verdict_smooth_run(self):
        grid = SpectralGrid(64)
        st = initial_state(grid, "single_mode", {"mean": 1.0, "amplitude": 0.05})
        cfg = IntegratorConfig(dt_initial=5e-3, dt_min=1e-9, t_end=0.3)
        traj = run(st, P_V2, cfg)
        verdict = blow_up_verdict(traj, P_V2, MonitorSpec())
        assert not verdict.insufficient_data
        assert verdict.serrin_pass and verdict.vacuum_pass
        assert verdict.terminated_by is None

    def test_verdict_insufficient_data(self):
        traj = Trajectory(params=P_V2)
        verdict = blow_up_verdict(traj, P_V2)
        assert verdict.insufficient_data

    def test_verdict_from_snapshots_equals_verdict_from_their_reports(self):
        # the README vacuum squeeze with a snapshot cadence, which ends in
        # PositivityLoss; the snapshots alone take the recomputing branch
        (squeeze,) = [b for b in readme_blocks("json") if "gaussian_bump" in b]
        cfg = parse_config(squeeze)
        integrator = replace(cfg.integrator, snapshot_interval=0.03)
        st = initial_state(cfg.grid, cfg.initial.family, cfg.initial.params)
        with pytest.raises(PositivityLoss) as err:
            run(st, cfg.model, integrator, cfg.monitors)
        states, terminated = err.value.trajectory.states, err.value.trajectory.terminated
        assert len(states) > 2
        snapshots_only = Trajectory(params=cfg.model, states=states, terminated=terminated)
        reports = ReportTable()
        for s in states:
            reports.extend(evaluate_reports([s], cfg.model, cfg.monitors,
                                            previous=reports[-1] if reports else None))
        with_reports = Trajectory(params=cfg.model, states=states, terminated=terminated,
                                  reports=reports)
        verdict = blow_up_verdict(snapshots_only, cfg.model, cfg.monitors)
        assert not verdict.insufficient_data
        assert verdict == blow_up_verdict(with_reports, cfg.model, cfg.monitors)


class TestVacuumEndpointNorm:
    def test_constant_density_closed_form(self):
        from kortorus.functionals import vacuum_endpoint_norm

        grid = SpectralGrid(64)
        c, p, k, T = 2.0, 3.0, 6.0, 1.5
        st = FieldState(grid.constant(c), grid.zero_vector())
        times = [0.0, 0.5, 1.0, T]
        states = [FieldState(st.rho, st.w, t) for t in times]
        traj = Trajectory(params=P_V2, states=states)
        # 1D parabolic family: 2/k + 1/q = 1/2 gives q = 6 at k = 6
        q = 6.0
        expected = (c ** (-(p - 1.0) / 2.0) * TAU ** (1.0 / q)) * T ** (1.0 / k)
        assert vacuum_endpoint_norm(traj, p, k) == pytest.approx(expected, rel=1e-12)

    def test_inadmissible_time_exponent(self):
        from kortorus.functionals import vacuum_endpoint_norm

        grid = SpectralGrid(64)
        st = FieldState(grid.constant(1.0), grid.zero_vector())
        traj = Trajectory(params=P_V2, states=[st])
        with pytest.raises(ScalingPairInvalid):
            vacuum_endpoint_norm(traj, 2.0, 3.0)  # k = 3 < 4 in 1D

    def test_reads_any_iterable_of_states_once(self):
        from kortorus.functionals import vacuum_endpoint_norm

        grid = SpectralGrid((16, 16))
        states = [FieldState(grid.from_function(lambda x, y: 1.0 + 0.3 * np.sin(x + t) * np.cos(y)),
                             grid.zero_vector(), t) for t in (0.0, 0.4, 1.0)]
        along = vacuum_endpoint_norm(Trajectory(params=P_V2, states=states), 2.0, 4.0)
        assert along > 0.0
        assert vacuum_endpoint_norm(iter(states), 2.0, 4.0) == along
        with pytest.raises(EmptyTrajectory):
            vacuum_endpoint_norm(iter([]), 2.0, 4.0)

    def test_grows_toward_vacuum(self):
        from kortorus.functionals import vacuum_endpoint_norm

        grid = SpectralGrid(64)
        times = [0.0, 1.0]
        vals = []
        for squeeze in (0.3, 0.8):
            rho = grid.from_function(lambda x: 1.0 + squeeze * np.sin(x))
            states = [FieldState(rho, grid.zero_vector(), t) for t in times]
            traj = Trajectory(params=P_V2, states=states)
            vals.append(vacuum_endpoint_norm(traj, 2.0, 6.0))
        assert vals[1] > vals[0]
