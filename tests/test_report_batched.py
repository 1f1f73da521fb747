"""Reports with a batch axis: ``evaluate_reports`` over a batch equals the
column-by-column reference and ``evaluate_report`` member by member, and
``run`` reports its steps in batches that give every accepted step the
report that one call a step made."""

import json
import math
import warnings

import numpy as np
import pytest

from kortorus import functionals, timestepping
from kortorus.config import parse_config
from kortorus.errors import NonFinite, PositivityLoss, StepUnderflow
from kortorus.functionals import COLUMNS, MonitorSpec, evaluate_report, evaluate_reports
from kortorus.model import FieldState, ModelParams, SpectralState, spectral_state
from kortorus.scenarios import initial_state, manufactured_solution
from kortorus.spectral import ScalarField, SpectralGrid, VectorField, hess_hat, to_spectral
from kortorus.timestepping import IntegratorConfig, Stepper, Trajectory, cfl_dt, run
from helpers import readme_blocks
from report_reference import bitwise, reference_report

VARIANT_PARAMS = {
    "original": ModelParams(mu=1.0, alpha=0.3, kappa=0.5, a=1.0, gamma=1.4),
    "effective_v1": ModelParams(mu=1.0, alpha=0.5, kappa=0.5, a=1.0, gamma=2.0,
                                variant="effective_v1"),
    "effective_v2": ModelParams(mu=0.5, alpha=0.0, kappa=0.25, a=2.0, gamma=1.0,
                                variant="effective_v2"),
}
#: rho^(1-p) overflows on the near-vacuum member only
SPEC = MonitorSpec(p_vacuum=50.0, epsilon=0.5, delta_vacuum=0.9)


def smooth_state(grid, seed):
    return initial_state(grid, "random_smooth", {"mean": 1.5, "amplitude": 0.4,
                                                 "velocity_amplitude": 0.5}, seed=seed)


def batch_members(resolution, params, count):
    """``count`` states on one grid: a zero-velocity member (constant
    density, so that v = 0 in every variant), a near-vacuum member, a bare
    state, and the SpectralStates of the accepted steps of a run."""
    grid = SpectralGrid(resolution)
    x = grid.meshgrid()[0]
    zero = FieldState(grid.constant(1.3), grid.zero_vector(), time=0.5)
    vacuum = FieldState(grid.from_function(lambda *c: 1.0 + (1.0 - 1e-7) * np.sin(c[0])),
                        VectorField(grid, np.stack([0.3 * np.cos(x)] * grid.dim)), time=0.25)
    members = [zero, vacuum, smooth_state(grid, 5)]
    stepper = Stepper(smooth_state(grid, 6), params, IntegratorConfig(
        dt_initial=1e-4, dt_min=1e-9, t_end=1.0, scheme="imex_bdf2"))
    while len(members) < count:
        stepper.advance(1e-4)
        members.append(stepper.derived)
    return members


def member_columns(report):
    return bitwise({name: getattr(report, name) for name in COLUMNS
                    if name != "serrin_accumulator"})


def batch_count(resolution):
    """A member count that fills two batches and part of a third."""
    return 2 * (functionals._REPORT_BATCH_POINTS // math.prod(SpectralGrid(resolution).shape)) + 1


@pytest.mark.parametrize("variant", sorted(VARIANT_PARAMS))
@pytest.mark.parametrize("resolution", [64, (32, 32)])
def test_batched_reports_equal_reference(variant, resolution):
    params = VARIANT_PARAMS[variant]
    members = batch_members(resolution, params, batch_count(resolution))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        expected = [bitwise(reference_report(m, params, SPEC)) for m in members]
    reports = list(evaluate_reports(members, params, SPEC))
    assert [member_columns(r) for r in reports] == expected
    # the Serrin trapezoid over the members' times, from 0.0 at the first
    accumulated = [0.0]
    for before, after in zip(reports, reports[1:]):
        accumulated.append(accumulated[-1] + 0.5 * (after.time - before.time)
                           * (before.serrin_integrand + after.serrin_integrand))
    assert [r.serrin_accumulator for r in reports] == accumulated
    # each member names its own overflowed columns
    assert [set(r.diverged) for r in reports] == [
        {k for k, x in e.items() if x == "nan" or not math.isfinite(x)} for e in expected]
    assert "vac_value" in reports[1].diverged and not reports[0].diverged
    assert reports[0].max_speed == 0.0 and reports[0].serrin_integrand == 0.0


@pytest.mark.parametrize("variant", sorted(VARIANT_PARAMS))
@pytest.mark.parametrize("resolution", [64, (32, 32)])
def test_batched_reports_continue_the_serrin_trapezoid(variant, resolution):
    params = VARIANT_PARAMS[variant]
    members = batch_members(resolution, params, batch_count(resolution) + 3)[3:]
    first = evaluate_report(smooth_state(SpectralGrid(resolution), 6), params)
    one_by_one = [first]
    for member in members:
        one_by_one.append(evaluate_report(member, params, previous=one_by_one[-1]))
    assert list(evaluate_reports(members, params, previous=first)) == one_by_one[1:]
    # without a report before, the trapezoid starts at 0.0 on the first member
    from_first = [evaluate_report(members[0], params)]
    for member in members[1:]:
        from_first.append(evaluate_report(member, params, previous=from_first[-1]))
    assert from_first[0].serrin_accumulator == 0.0
    assert list(evaluate_reports(members, params)) == from_first
    assert len(evaluate_reports([], params)) == 0


def table_bits(table):
    """The bits of every column of a report table, and its ``diverged``."""
    return np.array([table.column(name) for name in COLUMNS]).tobytes(), table.diverged


@pytest.mark.parametrize("resolution", [64, (32, 32)])
def test_reports_of_a_stream_equal_those_of_its_list(resolution):
    params = VARIANT_PARAMS["effective_v2"]
    members = batch_members(resolution, params, batch_count(resolution))
    first = evaluate_report(smooth_state(SpectralGrid(resolution), 6), params, SPEC)
    for previous in (None, first):
        listed = evaluate_reports(members, params, SPEC, previous)
        streamed = evaluate_reports((member for member in members), params, SPEC, previous)
        assert len(streamed) == len(members)
        assert table_bits(streamed) == table_bits(listed)


def test_a_stream_is_drawn_one_batch_at_a_time(monkeypatch):
    # 1D N = 64: 32 states a batch, none of a batch drawn before the one
    # before it is reported
    events, report = [], functionals._report

    def reporting(d, *args):
        events.append(("report", len(d.rho.data)))
        return report(d, *args)
    monkeypatch.setattr(functionals, "_report", reporting)
    params = VARIANT_PARAMS["effective_v2"]
    members = batch_members(64, params, 70)

    def drawn():
        for i, member in enumerate(members):
            events.append(("draw", i))
            yield member
    assert len(evaluate_reports(drawn(), params)) == 70
    assert events == ([("draw", i) for i in range(32)] + [("report", 32)]
                      + [("draw", i) for i in range(32, 64)] + [("report", 32)]
                      + [("draw", i) for i in range(64, 70)] + [("report", 6)])


@pytest.mark.parametrize("dt_min", [1.0, 1e-3])
def test_a_finite_state_past_the_float_range_is_reported_and_ends_as_nonfinite(dt_min):
    """A density source of 1e307 on 8 points (effective_v2, gamma 1): the
    accepted states are finite, but their mass is near the largest float,
    so that ``mv_rhs_bound``'s power overflows and is named in ``diverged``;
    the step whose coefficients overflow ends the run as NonFinite, with
    its trajectory and no numpy warning.  With dt_min 1e-3 the probe
    halves the last steps first."""
    grid = SpectralGrid(8)
    state = FieldState(ScalarField(grid, np.ones(8)), VectorField(grid, np.zeros((1, 8))))
    params = ModelParams(mu=1.0, alpha=0.0, kappa=1.0, a=1.0, gamma=1.0, variant="effective_v2")
    sources = (np.full(8, 1e307), np.zeros((1, 8)))
    config = IntegratorConfig(dt_initial=1.0, dt_min=dt_min, t_end=4.0, adaptive=False)
    with warnings.catch_warnings(), pytest.raises(NonFinite) as info:
        warnings.simplefilter("error")
        run(state, params, config, forcing=lambda t: sources)
    traj = info.value.trajectory
    assert traj.terminated.kind == "NonFinite" and 2.0 <= traj.terminated.time < 3.0
    reports = list(traj.reports)
    assert [r.time for r in reports[:3]] == [0.0, 1.0, 2.0]
    assert not reports[0].diverged
    for report, kept in zip(reports[1:], traj.states[1:]):
        assert "mv_rhs_bound" in report.diverged and math.isfinite(report.mass)
        assert np.isfinite(kept.rho.data).all()


def test_report_powers_overflow_to_inf():
    # a finite power keeps Python's bits; an overflowing one is inf
    assert functionals._power(2.0, 0.5) == 2.0 ** 0.5
    assert functionals._power(1.3e308, 4.0 / 3.0) == math.inf
    assert functionals._power(0.0, 4.0) == 0.0


def test_batch_of_one_holds_views_of_its_member():
    params = VARIANT_PARAMS["effective_v2"]
    member = batch_members(64, params, 4)[-1]
    batch = SpectralState.stack([member])
    for name in ("rho_hat", "w_hat", "grad_w", "u"):
        assert getattr(batch, name).shape[-2] == 1
        assert np.shares_memory(getattr(batch, name), getattr(member, name))
    assert np.shares_memory(batch.rho.data, member.rho.data)


@pytest.mark.parametrize("resolution", [64, (32, 32)])
def test_a_batch_adds_no_field_to_its_members(resolution):
    # stepped states (holding what their step made), fresh states from their
    # coefficients, and bare states: what a batch forms dies with it
    params = VARIANT_PARAMS["original"]
    grid = SpectralGrid(resolution)
    stepped = batch_members(resolution, params, 6)[3:]
    fresh = [SpectralState(d.state, params, d.rho_hat, d.w_hat) for d in stepped]
    bare = [spectral_state(smooth_state(grid, seed), params) for seed in (1, 2, 3)]
    for members in (stepped + fresh, bare):
        held = [dict(vars(m)) for m in members]
        evaluate_reports(members, params)
        for member, before in zip(members, held):
            assert vars(member).keys() == before.keys()
            assert all(vars(member)[name] is value for name, value in before.items())


def test_batch_takes_the_step_coefficients_of_a_mixed_batch():
    # a bare member beside stepped ones: each keeps its own coefficients
    params = VARIANT_PARAMS["original"]
    members = batch_members(64, params, 6)
    batch = SpectralState.stack([spectral_state(m, params) for m in members])
    for i, m in enumerate(members[3:], start=3):
        assert np.array_equal(batch.rho_hat[i], m.rho_hat)
        assert np.array_equal(batch.w_hat[:, i], m.w_hat)


def test_hess_ln_rho_of_a_batched_2d_original_state():
    params = VARIANT_PARAMS["original"]
    stepped = batch_members((32, 32), params, 6)[3:]
    # fresh states from the step coefficients, so the batch forms the Hessian
    members = [SpectralState(d.state, params, d.rho_hat, d.w_hat) for d in stepped]
    batch = SpectralState.stack(members)
    assert batch.hess_ln_rho.shape == (2, 2, 3, 32, 32)
    for i, member in enumerate(members):
        assert np.array_equal(batch.hess_ln_rho[:, :, i], member.hess_ln_rho)
    grid = members[0].grid
    ik = grid.rfft_ik
    hat = to_spectral(np.log(members[0].rho.data), grid)
    assert np.array_equal(hess_hat(hat, grid), ik[:, None] * ik[None] * hat)


# ---------------------------------------------------------------------------
# run() in batches


def per_step_reports(initial, params, config, monitors, forcing=None):
    """The reports of ``run``, made by one ``evaluate_report`` call an
    accepted step, and the type of the error that ended the run (None at
    t_end)."""
    stepper = Stepper(FieldState(initial.rho, initial.w, time=0.0), params, config, forcing)
    reports = [evaluate_report(stepper.derived, params, monitors)]
    eps_end = 1e-12 * config.t_end
    try:
        while stepper.state.time < config.t_end - eps_end:
            dt = min(config.dt_initial, config.t_end - stepper.state.time,
                     cfl_dt(stepper.derived, params, config) if config.adaptive else math.inf)
            while True:
                try:
                    stepper.advance(dt)
                    break
                except (PositivityLoss, NonFinite):
                    dt *= 0.5
                    if dt < config.dt_min:
                        raise
            reports.append(evaluate_report(stepper.derived, params, monitors,
                                           previous=reports[-1]))
    except (StepUnderflow, PositivityLoss, NonFinite) as exc:
        return reports, type(exc)
    return reports, None


def squeeze_config():
    (squeeze,) = [b for b in readme_blocks("json") if "gaussian_bump" in b]
    return parse_config(squeeze)


def ms1d_config():
    return parse_config(json.dumps({
        "grid": {"resolution": [64]},
        "model": {"variant": "effective_v2", "mu": 1.0, "kappa": 1.0, "a": 1.0},
        "integrator": {"scheme": "imex_bdf2", "dt_initial": 2.5e-3, "t_end": 0.4,
                       "adaptive": False},
        "initial": {"family": "manufactured", "params": {"id": "ms1d"}}}))


def cadence_2d_config():
    return parse_config(json.dumps({
        "grid": {"resolution": [32, 32]},
        "model": {"variant": "effective_v2", "mu": 0.1, "kappa": 0.01, "a": 1.0},
        "integrator": {"scheme": "imex_bdf2", "dt_initial": 1e-3, "t_end": 0.03,
                       "snapshot_interval": 0.0075},
        "initial": {"family": "random_smooth", "seed": 7,
                    "params": {"mean": 1.2, "amplitude": 0.25, "velocity_amplitude": 0.3}}}))


def forcing_of(config):
    if config.initial.family != "manufactured":
        return None
    return manufactured_solution(config.initial.params["id"]).forcing(config.grid, config.model)


@pytest.mark.parametrize("make_config", [squeeze_config, ms1d_config, cadence_2d_config],
                         ids=["squeeze", "ms1d", "cadence_2d"])
def test_run_reports_equal_per_step_reports(make_config):
    config = make_config()
    state0 = initial_state(config.grid, config.initial.family, config.initial.params,
                           seed=config.initial.seed)
    forcing = forcing_of(config)
    expected, error = per_step_reports(state0, config.model, config.integrator,
                                       config.monitors, forcing)
    per_batch = functionals._REPORT_BATCH_POINTS // math.prod(config.grid.shape)
    assert len(expected) > 2 * per_batch  # several full batches and a partial one
    try:
        traj = run(state0, config.model, config.integrator, config.monitors, forcing)
        assert error is None
    except (StepUnderflow, PositivityLoss, NonFinite) as exc:
        assert type(exc) is error
        traj = exc.trajectory
    assert list(traj.reports) == expected


class Killed(Exception):
    pass


@pytest.mark.parametrize("accepted", [1, 63, 64, 70])
def test_exception_mid_batch_leaves_a_report_per_accepted_step(monkeypatch, accepted):
    config = ms1d_config()
    state0 = initial_state(config.grid, "manufactured", config.initial.params)
    expected, _ = per_step_reports(state0, config.model, config.integrator, config.monitors,
                                   forcing_of(config))
    advance, count = Stepper.advance, {"accepted": 0}

    def killing(self, dt):
        if count["accepted"] == accepted:
            raise Killed
        out = advance(self, dt)
        count["accepted"] += 1
        return out
    monkeypatch.setattr(Stepper, "advance", killing)
    traj = Trajectory(params=config.model)
    with pytest.raises(Killed):
        run(state0, config.model, config.integrator, config.monitors, forcing_of(config),
            trajectory=traj)
    assert list(traj.reports) == expected[:accepted + 1]
    assert traj.terminated is None


def test_run_batches_by_the_cap(monkeypatch):
    # 1D 64 points: 32 states a batch; 2D 64^2: one
    sizes = []
    batched = timestepping.evaluate_reports

    def recorded(states, *args, **kwargs):
        sizes.append(len(states))
        return batched(states, *args, **kwargs)
    monkeypatch.setattr(timestepping, "evaluate_reports", recorded)
    config = ms1d_config()
    state0 = initial_state(config.grid, "manufactured", config.initial.params)
    traj = run(state0, config.model, config.integrator, config.monitors, forcing_of(config))
    per_batch = functionals._REPORT_BATCH_POINTS // 64
    assert sizes == [per_batch] * (160 // per_batch) + [160 % per_batch] * (160 % per_batch > 0)
    assert len(traj.reports) == 161
    sizes.clear()
    grid = SpectralGrid((64, 64))
    run(smooth_state(grid, 1), VARIANT_PARAMS["effective_v2"],
        IntegratorConfig(dt_initial=1e-4, dt_min=1e-9, t_end=3e-4))
    assert sizes == [1, 1, 1]


@pytest.mark.parametrize("resolution,states", [(64, 32), (128, 16), ((32, 32), 2),
                                               ((64, 64), 1), ((128, 128), 1)])
def test_report_batch_size_is_the_readme_figure(resolution, states):
    assert functionals.report_batch_size(SpectralGrid(resolution)) == states
