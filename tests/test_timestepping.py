import math
from dataclasses import replace

import numpy as np
import pytest

from kortorus import timestepping
from kortorus.config import parse_config
from kortorus.errors import NonFinite, PositivityLoss, StepUnderflow
from kortorus.functionals import MonitorSpec
from kortorus.littlewood_paley import BesovIndex, besov_norm
from kortorus.model import FieldState, ModelParams, recover_u, rhs
from kortorus.scenarios import initial_state, manufactured_solution
from kortorus.spectral import (ScalarField, SpectralGrid, VectorField, forward_transform,
                               gradient)
from kortorus.timestepping import IntegratorConfig, cfl_dt, run, step
from helpers import max_abs, readme_blocks

P_V2 = ModelParams(mu=1.0, alpha=0.0, kappa=1.0, a=1.0, gamma=2.0, variant="effective_v2")
SMALL_A = ModelParams(mu=1.0, alpha=0.0, kappa=1.0, a=1e-12, gamma=2.0,
                      variant="effective_v2")


def base_config(**kw):
    defaults = dict(dt_initial=1e-2, dt_min=1e-10, t_end=0.5)
    defaults.update(kw)
    return IntegratorConfig(**defaults)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt_initial=-1.0, dt_min=1e-9, t_end=1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(dt_initial=1e-3, dt_min=1e-2, t_end=1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(dt_initial=1e-3, dt_min=1e-9, t_end=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(dt_initial=1e-3, dt_min=1e-9, t_end=1.0, cfl_safety=1.5)
        with pytest.raises(ValueError):
            IntegratorConfig(dt_initial=1e-3, dt_min=1e-9, t_end=1.0, scheme="rk9")


class TestStep:
    @pytest.mark.parametrize("scheme", ["imex_euler", "imex_bdf2"])
    @pytest.mark.parametrize("dt", [1e-3, 0.1, 2.0])
    def test_equilibrium_fixed_point(self, scheme, dt):
        grid = SpectralGrid(32)
        st = initial_state(grid, "equilibrium", {"mean": 1.3})
        out = step(st, P_V2, base_config(dt_initial=max(dt, 1e-3), scheme=scheme), dt)
        assert max_abs(out.rho.data - 1.3) < 1e-13
        assert max_abs(out.w.data) < 1e-13

    def test_exact_integrating_factor(self):
        # v = 0: one imex_euler step multiplies the density mode-1 amplitude
        # by exactly exp(-(kappa/mu) dt)
        grid = SpectralGrid(64)
        st = initial_state(grid, "single_mode", {"mean": 1.0, "amplitude": 0.1})
        dt = 0.07
        out = step(st, P_V2, base_config(), dt)
        coeff = forward_transform(out.rho)
        assert abs(2 * abs(coeff[1]) - 0.1 * math.exp(-P_V2.eps * dt)) < 1e-14

    def test_positivity_loss_raised(self):
        grid = SpectralGrid(64)
        st = initial_state(grid, "gaussian_bump",
                           {"mean": 1.0, "depth": 0.999, "width": 0.3,
                            "velocity_amplitude": 3.0})
        params = ModelParams(mu=0.05, alpha=0.0, kappa=0.0025, a=0.01, gamma=2.0,
                             variant="effective_v2")
        with pytest.raises(PositivityLoss) as err:
            step(st, params, base_config(), 0.5)
        assert err.value.location is not None

    def test_rejects_nonpositive_dt(self):
        grid = SpectralGrid(32)
        st = initial_state(grid, "equilibrium", {})
        with pytest.raises(ValueError):
            step(st, P_V2, base_config(), 0.0)

    def test_non_finite_update_raises(self):
        grid = SpectralGrid(32)
        st = initial_state(grid, "equilibrium", {"mean": 1.0})
        bad_forcing = lambda t: (np.full(grid.shape, np.nan),
                                 np.zeros((1,) + grid.shape))
        with pytest.raises(NonFinite):
            step(st, P_V2, base_config(), 1e-3, forcing=bad_forcing)

    def test_density_update_unconditionally_stable(self):
        # nonlinear terms absent (v = 0, negligible pressure): each mode damps
        # by the exact exponential factor no matter how large dt is
        grid = SpectralGrid(64)
        st = initial_state(grid, "single_mode", {"mean": 1.0, "amplitude": 0.1,
                                                 "wavenumber": 4})
        dt = 50.0
        out = step(st, SMALL_A, base_config(dt_initial=dt), dt)
        coeff = forward_transform(out.rho)
        assert abs(coeff[0] - 1.0) < 1e-13
        assert abs(2 * abs(coeff[4]) - 0.1 * math.exp(-SMALL_A.eps * 16.0 * dt)) < 1e-14
        assert max_abs(out.rho.data - 1.0) < 1e-10


class TestCFL:
    @pytest.mark.parametrize("variant", ["effective_v2", "original"])
    @pytest.mark.parametrize("resolution", [64, (32, 32)])
    def test_transport_speed_bound(self, variant, resolution):
        # the bound is h / max|u - mu grad ln rho|, on a state whose
        # grad ln rho does not vanish
        grid = SpectralGrid(resolution)
        params = P_V2.with_variant(variant)
        st = initial_state(grid, "random_smooth",
                           {"mean": 1.5, "amplitude": 0.3,
                            "velocity_amplitude": 0.7}, seed=2)
        grad_ln_rho = gradient(ScalarField(grid, np.log(st.rho.data))).data
        assert max_abs(grad_ln_rho) > 0.1
        u = recover_u(st.rho, st.w, params).data if variant != "original" else st.w.data
        speed = float(np.sqrt(((u - params.mu * grad_ln_rho) ** 2).sum(axis=0)).max())
        h = min(grid.spacing)
        assert cfl_dt(st, params, base_config(cfl_safety=0.9)) == pytest.approx(
            0.9 * h / speed, rel=1e-14)

    def test_velocity_halves_advective_bound(self):
        grid = SpectralGrid(64)
        cfg = base_config(cfl_safety=0.4)
        h = grid.spacing[0]
        dts = []
        for amp in (1.0, 2.0):
            w = VectorField(grid, np.full((1,) + grid.shape, amp))
            st = FieldState(grid.constant(1.0), w)
            dts.append(cfl_dt(st, P_V2, cfg))
        assert dts[0] == pytest.approx(0.4 * h / 1.0, rel=1e-14)
        assert dts[1] == pytest.approx(dts[0] / 2.0, rel=1e-14)

    def test_underflow(self):
        grid = SpectralGrid(64)
        w = VectorField(grid, np.full((1,) + grid.shape, 1e9))
        st = FieldState(grid.constant(1.0), w)
        with pytest.raises(StepUnderflow):
            cfl_dt(st, P_V2, base_config(dt_min=1e-3))


class TestViscousRate:
    """The velocity tendency is per unit mass, so its stress term
    div(mu rho grad w)/rho = mu Lap w + mu (grad ln rho . grad) w diffuses at
    the rate mu at every density, and the step treats it so."""

    @pytest.mark.parametrize("variant", ["effective_v2", "original"])
    @pytest.mark.parametrize("rho0", [0.1, 1.0, 10.0])
    def test_velocity_mode_decays_at_mu_whatever_the_density(self, rho0, variant):
        grid = SpectralGrid(32)
        params = P_V2.with_variant(variant)
        w = VectorField(grid, 1e-3 * np.sin(3 * grid.axes()[0])[None])
        dt = 0.01
        out = step(FieldState(grid.constant(rho0), w), params, base_config(), dt)
        ratio = np.fft.rfft(out.w.data[0])[3] / np.fft.rfft(w.data[0])[3]
        assert ratio == pytest.approx(1.0 / (1.0 + 9.0 * params.mu * dt), rel=1e-13)

    def test_low_density_run_completes_with_decaying_energy(self):
        # at mean density 0.2, an implicit rate of mu rho would leave about
        # 0.8 mu Lap explicit, far beyond what dt 0.05 at N = 128 can carry
        params = ModelParams(mu=1.0, alpha=0.0, kappa=1.0, a=0.1, gamma=2.0,
                             variant="effective_v2")
        st = initial_state(SpectralGrid(128), "random_smooth",
                           {"mean": 0.2, "amplitude": 0.05, "velocity_amplitude": 0.1,
                            "modes": 3}, seed=0)
        traj = run(st, params, base_config(dt_initial=0.05, t_end=10.0))
        assert traj.terminated is None
        assert traj.reports[-1].time == pytest.approx(10.0)
        energy = [r.effective_energy for r in traj.reports]
        assert all(b - a <= 1e-12 * abs(a) for a, b in zip(energy, energy[1:]))


class TestTruncationRule:
    """The split's one truncation rule (``model.tendency_hats``): the linear
    diffusions act on every mode and only the explicit remainder is masked,
    so a velocity mode above the 2/3 cutoff (13 at N = 32) decays at the
    implicit rate, and ``original``'s density, which has no diffusion,
    carries its modes above the cutoff as they are."""

    PARAMS = ModelParams(mu=0.5, alpha=0.0, kappa=0.25, a=1.0, gamma=2.0,
                         variant="effective_v2")
    DT, STEPS = 0.01, 50

    def state(self, rho_mode=0.0):
        grid = SpectralGrid(32)
        x = grid.axes()[0]
        return FieldState(grid.scalar(1.0 + rho_mode * np.cos(13 * x)),
                          VectorField(grid, 1e-3 * (np.sin(3 * x) + np.sin(13 * x))[None]))

    def stepped(self, state, variant, scheme):
        """The coefficients (rho_hat, w_hat) after the fixed steps, and
        those of ``state``."""
        stepper = timestepping.Stepper(state, self.PARAMS.with_variant(variant),
                                       base_config(scheme=scheme, adaptive=False))
        start = stepper.derived
        for _ in range(self.STEPS):
            stepper.advance(self.DT)
        return stepper.derived, start

    @pytest.mark.parametrize("variant", ["effective_v2", "original"])
    def test_velocity_mode_above_the_cutoff_decays_at_the_implicit_rate(self, variant):
        end, start = self.stepped(self.state(), variant, "imex_euler")
        rate = 1.0 + self.PARAMS.mu * 13 ** 2 * self.DT
        assert end.w_hat[0, 13] / start.w_hat[0, 13] == pytest.approx(rate ** -self.STEPS,
                                                                     rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("variant", ["effective_v2", "original"])
    def test_bdf2_damps_the_velocity_mode_above_the_cutoff(self, variant):
        end, start = self.stepped(self.state(), variant, "imex_bdf2")
        assert abs(end.w_hat[0, 13] / start.w_hat[0, 13]) < 1e-15

    @pytest.mark.parametrize("scheme", timestepping.SCHEMES)
    def test_original_density_mode_above_the_cutoff_is_carried(self, scheme):
        end, start = self.stepped(self.state(rho_mode=1e-3), "original", scheme)
        assert end.rho_hat[13] == pytest.approx(start.rho_hat[13], rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("variant", ["effective_v2", "original"])
    def test_rhs_returns_mu_lap_w_on_every_mode(self, variant):
        state = self.state()
        _, dw = rhs(state, self.PARAMS.with_variant(variant))
        w_hat = np.fft.rfft(state.w.data[0])[13]
        assert np.fft.rfft(dw.data[0])[13] == pytest.approx(
            -self.PARAMS.mu * 13 ** 2 * w_hat, rel=1e-12, abs=0.0)


class TestRun:
    def test_equilibrium_trajectory_constant(self):
        grid = SpectralGrid(32)
        st = initial_state(grid, "equilibrium", {"mean": 1.0})
        traj = run(st, P_V2, base_config(t_end=0.3))
        assert traj.terminated is None
        assert traj.states[0].time == 0.0
        assert traj.reports[-1].time == pytest.approx(0.3)
        energies = [r.energy_total for r in traj.reports]
        assert max(energies) - min(energies) < 1e-12

    def test_times_strictly_increasing(self):
        grid = SpectralGrid(32)
        st = initial_state(grid, "single_mode", {"mean": 1.0, "amplitude": 0.05})
        traj = run(st, P_V2, base_config(t_end=0.2))
        times = traj.times
        assert all(t1 > t0 for t0, t1 in zip(times, times[1:]))

    def test_mass_conserved(self):
        grid = SpectralGrid(64)
        st = initial_state(grid, "random_smooth",
                           {"mean": 1.2, "amplitude": 0.2,
                            "velocity_amplitude": 0.3}, seed=4)
        traj = run(st, P_V2, base_config(t_end=1.0, dt_initial=2e-3))
        masses = [r.mass for r in traj.reports]
        assert max(abs(m - masses[0]) for m in masses) / abs(masses[0]) < 1e-12

    def test_determinism_bit_identical(self):
        grid = SpectralGrid(64)
        st = initial_state(grid, "random_smooth",
                           {"mean": 1.2, "amplitude": 0.2,
                            "velocity_amplitude": 0.3}, seed=5)
        cfg = base_config(t_end=0.2, dt_initial=2e-3)
        t1 = run(st, P_V2, cfg)
        t2 = run(st, P_V2, cfg)
        assert t1.final_state.rho.data.tobytes() == t2.final_state.rho.data.tobytes()
        assert t1.final_state.w.data.tobytes() == t2.final_state.w.data.tobytes()

    def test_heat_kernel_oracle(self):
        # with negligible pressure the density follows per-mode exponential
        # decay; the velocity stays at roundoff scale
        grid = SpectralGrid(64)
        st = initial_state(grid, "single_mode",
                           {"mean": 1.0, "amplitude": 0.01, "wavenumber": 2})
        T = 0.25
        cfg = base_config(t_end=T, dt_initial=1e-3, dt_min=1e-12)
        traj = run(st, SMALL_A, cfg)
        coeff = forward_transform(traj.final_state.rho)
        decay = math.exp(-SMALL_A.eps * 4.0 * T)
        assert abs(2 * abs(coeff[2]) - 0.01 * decay) < 1e-8
        # density contracts toward its mean
        spreads = [r.rho_max - r.rho_min for r in traj.reports]
        assert spreads[-1] < spreads[0]

    def test_heat_run_besov_norm_decreases(self):
        grid = SpectralGrid(64)
        st = initial_state(grid, "single_mode",
                           {"mean": 1.0, "amplitude": 0.01, "wavenumber": 3})
        cfg = base_config(t_end=0.2, dt_initial=2e-3)
        traj = run(st, SMALL_A, cfg, monitors=MonitorSpec())
        idx = BesovIndex(1.0, 2.0, math.inf)
        norms = [besov_norm(ScalarField(s.grid, s.rho.data - np.mean(s.rho.data)), idx)
                 for s in traj.states]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(norms[1:], norms[2:]))

    def test_snapshot_cadence(self):
        grid = SpectralGrid(32)
        st = initial_state(grid, "single_mode", {"mean": 1.0, "amplitude": 0.02})
        cfg = base_config(t_end=0.5, dt_initial=1e-2, snapshot_interval=0.1)
        traj = run(st, P_V2, cfg)
        assert len(traj.states) == 6  # t = 0 plus five cadence targets
        for want, got in zip([0.0, 0.1, 0.2, 0.3, 0.4, 0.5], traj.times):
            assert abs(want - got) <= 5e-3 + 1e-12  # nearest accepted step

    @pytest.mark.parametrize("dt, interval, t_end", [
        (0.01, 0.0037, 0.1), (0.01, 0.025, 0.1), (0.01, 0.05, 0.1), (0.003, 0.0101, 0.05)])
    def test_snapshot_cadence_takes_nearest_accepted_time(self, dt, interval, t_end):
        grid = SpectralGrid(32)
        st = initial_state(grid, "single_mode", {"mean": 1.0, "amplitude": 0.02})
        cfg = base_config(t_end=t_end, dt_initial=dt, snapshot_interval=interval,
                          adaptive=False)
        traj = run(st, P_V2, cfg)
        accepted = [r.time for r in traj.reports]
        expected = {0.0, accepted[-1]}
        target = interval
        while target <= accepted[-1] + 0.5 * dt:
            # the accepted time nearest the target, the later one on a tie
            expected.add(min(reversed(accepted), key=lambda a: abs(a - target)))
            target += interval
        assert traj.times == sorted(expected)

    def test_positivity_reject_and_halve_then_fail(self):
        grid = SpectralGrid(64)
        st = initial_state(grid, "gaussian_bump",
                           {"mean": 1.0, "depth": 0.95, "width": 0.4,
                            "velocity_amplitude": 2.8})
        params = ModelParams(mu=0.05, alpha=0.0, kappa=0.0025, a=0.01, gamma=2.0,
                             variant="effective_v2")
        cfg = base_config(t_end=3.0, dt_initial=2e-3, dt_min=1e-10, cfl_safety=0.5)
        with pytest.raises(PositivityLoss) as err:
            run(st, params, cfg)
        traj = err.value.trajectory
        assert traj is not None
        assert traj.terminated is not None
        assert traj.terminated.kind == "PositivityLoss"
        assert len(traj.reports) > 10
        # the final recorded state is still strictly positive
        assert traj.reports[-1].rho_min > 0.0

    def test_readme_squeeze_converges_under_refinement(self):
        # the README vacuum squeeze, resolved: at N = 128 and 256 (dt_initial
        # scaled as 1/N) it runs to t = 2, and the final min rho agree within
        # 10 % (7.94e-3 and 8.59e-3; 8.60e-3 at N = 512).  With the stress
        # formed as div(rho T) and divided by rho again, N = 256 ended in
        # PositivityLoss at t = 1.812, earlier than N = 128.
        (squeeze,) = [b for b in readme_blocks("json") if "gaussian_bump" in b]
        cfg = parse_config(squeeze)
        finals = []
        for n, dt in ((128, 1e-3), (256, 5e-4)):
            st = initial_state(SpectralGrid(n), cfg.initial.family, cfg.initial.params)
            integrator = replace(cfg.integrator, dt_initial=dt, t_end=2.0)
            traj = run(st, cfg.model, integrator, cfg.monitors)
            assert traj.terminated is None
            finals.append(traj.reports[-1].rho_min)
        assert finals[1] == pytest.approx(finals[0], rel=0.1)

    def test_forcing_manufactured_exactness(self):
        # forcing derived for the manufactured solution keeps the discrete
        # trajectory within the scheme's truncation error of the exact fields
        grid = SpectralGrid(64)
        ms = manufactured_solution("ms1d")
        forcing = ms.forcing(grid, P_V2)
        cfg = base_config(t_end=0.2, dt_initial=1e-3, adaptive=False)
        traj = run(ms.state(grid, 0.0), P_V2, cfg, forcing=forcing)
        exact = ms.state(grid, 0.2)
        assert max_abs(traj.final_state.rho.data - exact.rho.data) < 5e-4
        assert max_abs(traj.final_state.w.data - exact.w.data) < 5e-4


class TestTemporalOrder:
    @pytest.mark.parametrize("scheme,min_order", [("imex_euler", 0.9),
                                                  ("imex_bdf2", 1.8)])
    def test_manufactured_convergence(self, scheme, min_order):
        grid = SpectralGrid(64)
        ms = manufactured_solution("ms1d")
        forcing = ms.forcing(grid, P_V2)
        T = 0.4
        errors = []
        for nsteps in (40, 80):
            cfg = IntegratorConfig(dt_initial=T / nsteps, dt_min=1e-12, t_end=T,
                                   scheme=scheme, adaptive=False)
            traj = run(ms.state(grid, 0.0), P_V2, cfg, forcing=forcing)
            exact = ms.state(grid, T)
            errors.append(max(max_abs(traj.final_state.rho.data - exact.rho.data),
                              max_abs(traj.final_state.w.data - exact.w.data)))
        order = math.log2(errors[0] / errors[1])
        assert order >= min_order


class TestCrossVariant:
    def test_original_and_effective_trajectories_converge(self):
        # the same physical initial state integrated as (rho, u) under the
        # original variant and as (rho, v) under effective_v1 must agree up
        # to the schemes' first-order error, so the gap halves with dt
        from kortorus.model import effective_velocity, recover_u
        from kortorus.scenarios import random_trig_field

        grid = SpectralGrid(64)
        params = ModelParams(mu=1.0, alpha=0.5, kappa=0.5, a=1.0, gamma=2.0,
                             variant="effective_v1")
        rho0 = grid.scalar(1.3 + 0.2 * random_trig_field(
            grid, np.random.default_rng(8), kmax=3))
        u0 = VectorField(grid, 0.3 * random_trig_field(
            grid, np.random.default_rng(9), kmax=3)[None])
        v0 = effective_velocity(rho0, u0, params)
        gaps = []
        for dt in (2e-3, 1e-3):
            cfg = IntegratorConfig(dt_initial=dt, dt_min=1e-12, t_end=0.2,
                                   adaptive=False)
            t_orig = run(FieldState(rho0, u0), params.with_variant("original"), cfg)
            t_eff = run(FieldState(rho0, v0), params, cfg)
            u_eff = recover_u(t_eff.final_state.rho, t_eff.final_state.w, params)
            gaps.append(max(
                max_abs(t_orig.final_state.rho.data - t_eff.final_state.rho.data),
                max_abs(t_orig.final_state.w.data - u_eff.data)))
        assert gaps[0] < 1e-3
        assert gaps[1] < 0.65 * gaps[0]


class TestCrossVariant2D:
    def test_bdf2_gap_falls_at_second_order_at_32_squared(self):
        # TestCrossVariant's oracle on a 32^2 grid with imex_bdf2: the gap
        # between the two discretizations of one solution falls at the
        # scheme's order, since mu Lap acts on every mode of both
        from kortorus.model import effective_velocity
        from kortorus.scenarios import random_trig_field, random_trig_fields

        grid = SpectralGrid((32, 32))
        params = ModelParams(mu=1.0, alpha=0.5, kappa=0.5, a=1.0, gamma=2.0,
                             variant="effective_v1")
        rho0 = grid.scalar(1.3 + 0.2 * random_trig_field(
            grid, np.random.default_rng(8), kmax=3))
        u0 = VectorField(grid, 0.3 * random_trig_fields(
            grid, np.random.default_rng(9), 2, kmax=3))
        v0 = effective_velocity(rho0, u0, params)
        gaps = []
        for dt in (1e-3, 5e-4):
            cfg = IntegratorConfig(dt_initial=dt, dt_min=1e-12, t_end=0.2, scheme="imex_bdf2",
                                   adaptive=False)
            t_orig = run(FieldState(rho0, u0), params.with_variant("original"), cfg)
            t_eff = run(FieldState(rho0, v0), params, cfg)
            u_eff = recover_u(t_eff.final_state.rho, t_eff.final_state.w, params)
            gaps.append(max(
                max_abs(t_orig.final_state.rho.data - t_eff.final_state.rho.data),
                max_abs(t_orig.final_state.w.data - u_eff.data)))
        assert math.log2(gaps[0] / gaps[1]) >= 1.8


class TestRouting:
    def test_run_routes_through_advance_report_and_rhs(self, monkeypatch):
        # every attempt goes through Stepper.advance, every report through
        # timestepping.evaluate_report (the initial one) or
        # timestepping.evaluate_reports (the accepted steps, in batches), and
        # every tendency through timestepping.rhs, where the traced
        # benchmark counts them
        counts = dict(advanced=0, failed=0, report=0, rhs=0)
        advance = timestepping.Stepper.advance

        def counted_advance(self, dt):
            try:
                out = advance(self, dt)
            except (PositivityLoss, NonFinite):
                counts["failed"] += 1
                raise
            counts["advanced"] += 1
            return out

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        def counted_members(fn):
            def wrapper(states, *args, **kwargs):
                counts["report"] += len(states)
                return fn(states, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(timestepping.Stepper, "advance", counted_advance)
        monkeypatch.setattr(timestepping, "evaluate_report",
                            counted("report", timestepping.evaluate_report))
        monkeypatch.setattr(timestepping, "evaluate_reports",
                            counted_members(timestepping.evaluate_reports))
        monkeypatch.setattr(timestepping, "rhs", counted("rhs", timestepping.rhs))
        (squeeze,) = [b for b in readme_blocks("json") if "gaussian_bump" in b]
        cfg = parse_config(squeeze)
        st = initial_state(cfg.grid, cfg.initial.family, cfg.initial.params)
        with pytest.raises(PositivityLoss) as err:
            run(st, cfg.model, cfg.integrator, cfg.monitors)
        reports = err.value.trajectory.reports
        assert counts["advanced"] == len(reports) - 1
        assert counts["failed"] > 0
        assert counts["report"] == len(reports)
        assert counts["rhs"] == len(reports)
