"""The lean step: the split's factors made once per dt and held by the
Stepper, and the 1D shortcuts of the spectral operators, each equal bit for bit to the computation it
replaces (``step_reference``, and the general expressions)."""

import json

import numpy as np
import pytest

from kortorus import timestepping
from kortorus.config import parse_config
from kortorus.errors import NonFinite, PositivityLoss, StepUnderflow
from kortorus.model import ModelParams
from kortorus.scenarios import initial_state, manufactured_solution
from kortorus.spectral import SpectralGrid, div_hat, grad_hat
from kortorus.timestepping import IntegratorConfig, Stepper, run
from helpers import readme_blocks
from step_reference import reference_bdf2, reference_euler

VARIANT_PARAMS = {
    "original": ModelParams(mu=1.0, alpha=0.3, kappa=0.5, a=1.0, gamma=1.4),
    "effective_v1": ModelParams(mu=1.0, alpha=0.5, kappa=0.5, a=1.0, gamma=2.0,
                                variant="effective_v1"),
    "effective_v2": ModelParams(mu=0.5, alpha=0.0, kappa=0.25, a=2.0, gamma=1.0,
                                variant="effective_v2"),
}

#: halvings, a repeated dt and returns to a dt taken before
DT_LADDER = (1e-3, 1e-3, 5e-4, 2.5e-4, 2.5e-4, 1e-3, 5e-4, 2e-3, 1e-3)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def smooth_state(grid, seed=5):
    return initial_state(grid, "random_smooth", {"mean": 1.5, "amplitude": 0.4,
                                                 "velocity_amplitude": 0.5}, seed=seed)


@pytest.mark.parametrize("scheme", timestepping.SCHEMES)
@pytest.mark.parametrize("variant", sorted(VARIANT_PARAMS))
@pytest.mark.parametrize("resolution", [64, (16, 16)])
def test_cached_kernels_equal_the_reference_on_a_dt_ladder(resolution, variant, scheme):
    grid, params = SpectralGrid(resolution), VARIANT_PARAMS[variant]
    config = IntegratorConfig(dt_initial=2e-3, dt_min=1e-9, t_end=1.0, scheme=scheme)
    ksq = -grid.rfft_minus_beta_sq
    lam_rho = (params.eps if variant != "original" else 0.0) * ksq
    stepper = Stepper(smooth_state(grid), params, config)
    lam_w = stepper._rates[1]
    for dt in DT_LADDER:
        level_p, level_n = (None, *stepper.run_state.levels)[-2:]
        euler = reference_euler(level_n, lam_rho, ksq, params.mu, dt)
        got = timestepping._advance_euler(level_n, stepper._factors_of(dt, None), lam_w, dt)
        assert all(map(same_bits, got, euler))
        expected = euler
        if level_p is not None:
            bdf2 = reference_bdf2(level_n, level_p, lam_rho, ksq, params.mu, dt)
            got = timestepping._advance_bdf2(level_n, level_p,
                                             stepper._factors_of(dt, level_n.dt_prev),
                                             lam_w, dt)
            assert all(map(same_bits, got, bdf2))
            expected = bdf2 if scheme == "imex_bdf2" else euler
        stepper.advance(dt)
        assert same_bits(stepper.derived.rho_hat, expected[0])
        assert same_bits(stepper.derived.w_hat, expected[1])


def squeeze_config():
    (squeeze,) = [b for b in readme_blocks("json") if "gaussian_bump" in b]
    return parse_config(squeeze)


def ms1d_config(scheme="imex_bdf2", dt=2.5e-3, t_end=0.4):
    return parse_config(json.dumps({
        "grid": {"resolution": [64]},
        "model": {"variant": "effective_v2", "mu": 1.0, "kappa": 1.0, "a": 1.0},
        "integrator": {"scheme": scheme, "dt_initial": dt, "t_end": t_end,
                       "adaptive": False},
        "initial": {"family": "manufactured", "params": {"id": "ms1d"}}}))


def run_config(config):
    """``run`` on ``config``: its trajectory and the type of the error that
    ended it (None at t_end)."""
    state0 = initial_state(config.grid, config.initial.family, config.initial.params,
                           seed=config.initial.seed)
    forcing = None
    if config.initial.family == "manufactured":
        forcing = manufactured_solution(config.initial.params["id"]).forcing(
            config.grid, config.model)
    try:
        return run(state0, config.model, config.integrator, config.monitors, forcing), None
    except (StepUnderflow, PositivityLoss, NonFinite) as exc:
        return exc.trajectory, type(exc)


def assert_same_run(a, b):
    (traj_a, error_a), (traj_b, error_b) = a, b
    assert error_a is error_b
    assert traj_a.terminated == traj_b.terminated
    assert list(traj_a.reports) == list(traj_b.reports)
    assert len(traj_a.states) == len(traj_b.states)
    for s, t in zip(traj_a.states, traj_b.states):
        assert s.time == t.time
        assert same_bits(s.rho.data, t.rho.data) and same_bits(s.w.data, t.w.data)


def watch_attempts(monkeypatch, before=None):
    """Wrap ``Stepper.advance``: call ``before(stepper)`` ahead of each
    attempt, and record the attempt's failure and the cache size after it."""
    attempts = []
    advance = Stepper.advance

    def watched(self, dt):
        if before is not None:
            before(self)
        try:
            out = advance(self, dt)
        except (PositivityLoss, NonFinite):
            attempts.append((False, len(self._factors)))
            raise
        attempts.append((True, len(self._factors)))
        return out
    monkeypatch.setattr(Stepper, "advance", watched)
    return attempts


@pytest.mark.parametrize("make_config", [squeeze_config, ms1d_config], ids=["squeeze", "ms1d"])
def test_run_with_factors_made_every_attempt_equals_run(monkeypatch, make_config):
    config = make_config()
    cached = run_config(config)
    attempts = watch_attempts(monkeypatch, before=lambda stepper: stepper._factors.clear())
    assert_same_run(run_config(config), cached)
    if make_config is squeeze_config:
        assert cached[1] is PositivityLoss
        assert not all(ok for ok, _ in attempts)  # it rejects steps first
    else:
        assert cached[1] is None
    assert all(size == 1 for _, size in attempts)


@pytest.mark.parametrize("scheme, sets", [("imex_euler", 1), ("imex_bdf2", 2)])
def test_fixed_dt_run_builds_its_factors_once(monkeypatch, scheme, sets):
    builds = []
    for name in ("_euler_factors", "_bdf2_factors"):
        make = getattr(timestepping, name)
        monkeypatch.setattr(timestepping, name,
                            lambda *args, _make=make: builds.append(args[1:]) or _make(*args))
    # dt = 2^-9, so that every step time is exact and every step takes dt
    traj, error = run_config(ms1d_config(scheme, dt=2.0 ** -9, t_end=160 * 2.0 ** -9))
    assert error is None and len(traj.reports) == 161
    assert len(builds) == sets  # imex_bdf2: the Euler start, then one BDF2 set


def held_entries(stepper) -> int:
    return timestepping._factor_entries(stepper._factors.values())


def test_squeeze_cache_stays_within_its_bound(monkeypatch):
    config = squeeze_config()
    held = []
    attempts = watch_attempts(monkeypatch, before=lambda stepper: held.append(stepper))
    normal = run_config(config)
    sizes = [size for _, size in attempts]
    assert normal[1] is PositivityLoss and not all(ok for ok, _ in attempts)
    # every rung of the halving ladder stays, far inside the bound
    (stepper,) = set(held)
    assert max(sizes) == len(stepper._factors) > 10
    assert held_entries(stepper) <= timestepping._FACTOR_CACHE_ENTRIES
    # a bound the run reaches evicts the oldest sets and changes no output
    attempts.clear()
    entries_per_set = held_entries(stepper) // len(stepper._factors)
    monkeypatch.setattr(timestepping, "_FACTOR_CACHE_ENTRIES", 4 * entries_per_set)
    assert_same_run(run_config(config), normal)
    assert max(size for _, size in attempts) == 4


def test_cfl_limited_2d_run_stays_under_the_entry_bound(monkeypatch):
    """A 128^2 run whose dt the CFL bound sets makes a new set every step;
    the cache keeps at most _FACTOR_CACHE_ENTRIES entries of them.  The
    velocity amplitude makes the transport bound set all but the last of
    its seven steps."""
    grid = SpectralGrid((128, 128))
    params = ModelParams(mu=0.1, alpha=0.0, kappa=0.01, a=1.0, gamma=1.0,
                         variant="effective_v2")
    config = IntegratorConfig(dt_initial=1.0, dt_min=1e-9, t_end=0.3, scheme="imex_bdf2")
    held = []
    watch_attempts(monkeypatch, before=lambda stepper: held.append(held_entries(stepper)))
    built = []
    make = timestepping._bdf2_factors
    monkeypatch.setattr(timestepping, "_bdf2_factors",
                        lambda *args: built.append(args[1:]) or make(*args))
    state0 = initial_state(grid, "random_smooth", {"mean": 1.2, "amplitude": 0.25,
                                                   "velocity_amplitude": 1.0}, seed=3)
    traj = run(state0, params, config)
    assert traj.states[-1].time == pytest.approx(0.3)
    assert len(set(built)) == len(built) > 3  # a new set every BDF2 step
    assert 0 < max(held) <= timestepping._FACTOR_CACHE_ENTRIES


def test_each_stepper_starts_with_an_empty_cache():
    grid, params = SpectralGrid(64), VARIANT_PARAMS["effective_v2"]
    config = IntegratorConfig(dt_initial=1e-3, dt_min=1e-9, t_end=1.0, scheme="imex_bdf2")
    first = Stepper(smooth_state(grid), params, config)
    for dt in DT_LADDER[:3]:
        first.advance(dt)
    assert len(first._factors) == 3
    second = Stepper(smooth_state(grid), params, config)
    assert second._factors == {}
    second.advance(1e-3)
    assert list(second._factors) == [(1e-3, None)] and len(first._factors) == 3


def signed_zero_coefficients(shape, seed):
    rng = np.random.default_rng(seed)
    hat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    hat.flat[::3] = complex(-0.0, -0.0)
    hat.flat[1::5] = complex(0.0, -0.0)
    hat.flat[2::7] = complex(-0.0, 1.0)
    return hat


@pytest.mark.parametrize("lead", [(), (1,), (2,), (1, 1), (1, 3)])
def test_1d_operators_equal_the_general_expressions_bit_for_bit(lead):
    grid = SpectralGrid(64)
    hat = signed_zero_coefficients(lead + grid.rfft_shape, 3)
    ik = grid.rfft_ik
    assert same_bits(grad_hat(hat, grid), ik.reshape((1,) + (1,) * len(lead) + (33,)) * hat)
    if lead[:1] == (1,):  # the component axis div_hat contracts; its sum turns -0.0 into +0.0
        assert same_bits(div_hat(hat, grid),
                         np.sum(ik.reshape((1,) + (1,) * (len(lead) - 1) + (33,)) * hat,
                                axis=0))


@pytest.mark.parametrize("resolution", [64, (16, 32)])
def test_complex_dealias_mask_multiplies_as_the_boolean_one(resolution):
    grid = SpectralGrid(resolution)
    keep = grid.rfft_dealias_keep
    assert keep.dtype == complex and set(np.unique(keep)) == {0.0, 1.0}
    hat = signed_zero_coefficients((2,) + grid.rfft_shape, 4)
    with np.errstate(invalid="ignore"):
        hat.flat[5], hat.flat[6] = complex(np.inf, 1.0), complex(np.nan, -0.0)
        assert same_bits(keep * hat, (keep.real == 1.0) * hat)
