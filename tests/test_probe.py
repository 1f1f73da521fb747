"""The batched retry of a 1D run and the in-place form of the step kernels.

After a rejected step a 1D run evaluates every halving of it at once
(``Stepper.probe``) and steps at the first that passes; the runs must equal,
bit for bit, those of the halving loop that tries one rung per attempt.  The
step kernels form their sums in place, at every grid size; they give the
bits of the plain expressions of ``step_reference``, and the probe's rung
axis gives the bits of a step of its own."""

import math

import numpy as np
import pytest

from kortorus import timestepping
from kortorus.errors import NonFinite, PositivityLoss, StepUnderflow
from kortorus.model import FieldState, ModelParams, SpectralState, tendency_hats
from kortorus.scenarios import initial_state
from kortorus.spectral import ScalarField, SpectralGrid, VectorField
from kortorus.timestepping import IntegratorConfig, Stepper, run
from helpers import (
    SQUEEZE_CONFIG,
    SQUEEZE_MONITORS,
    SQUEEZE_PARAMS,
    report_digest,
    squeeze_attempts,
    squeeze_state,
)
from step_reference import reference_bdf2, reference_euler, reference_tendency_hats

VARIANT_PARAMS = {
    "original": ModelParams(mu=1.0, alpha=0.3, kappa=0.5, a=1.0, gamma=1.4),
    "effective_v1": ModelParams(mu=1.0, alpha=0.5, kappa=0.5, a=1.0, gamma=2.0,
                                variant="effective_v1"),
    "effective_v2": ModelParams(mu=0.5, alpha=0.0, kappa=0.25, a=2.0, gamma=1.0,
                                variant="effective_v2"),
}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def halving(monkeypatch):
    """Make ``run`` try one rung per attempt: after a rejection it steps at
    dt/2, and so on, as a 2D run does."""
    monkeypatch.setattr(Stepper, "probe", lambda self, dt, dt_min: dt)


def attempt_run(state, params, config, monitors=None, forcing=None):
    """``run``'s trajectory, and the error that ended it (None at t_end), as
    (type, message, location, time)."""
    try:
        return run(state, params, config, monitors, forcing), None
    except (StepUnderflow, PositivityLoss, NonFinite) as exc:
        return exc.trajectory, (type(exc), str(exc), getattr(exc, "location", None), exc.time)


def advance_log(monkeypatch) -> list[tuple[float, bool]]:
    """Record the dt and the outcome of every ``Stepper.advance``."""
    log = []
    advance = Stepper.advance

    def logged(self, dt):
        try:
            out = advance(self, dt)
        except (PositivityLoss, NonFinite):
            log.append((dt, False))
            raise
        log.append((dt, True))
        return out
    monkeypatch.setattr(Stepper, "advance", logged)
    return log


def assert_same_run(a, b):
    """The same report rows (as written, so that nan equals nan), the same
    snapshot samples and the same termination."""
    (traj_a, error_a), (traj_b, error_b) = a, b
    assert error_a == error_b
    assert traj_a.terminated == traj_b.terminated
    assert report_digest(traj_a.reports) == report_digest(traj_b.reports)
    assert traj_a.reports.diverged == traj_b.reports.diverged
    assert len(traj_a.states) == len(traj_b.states)
    for s, t in zip(traj_a.states, traj_b.states):
        assert s.time == t.time
        assert same_bits(s.rho.data, t.rho.data) and same_bits(s.w.data, t.w.data)


def compare_with_halving(monkeypatch, *args, **kwargs):
    """The run of ``args`` with the probe and with the halving loop, and the
    advance log of each."""
    with monkeypatch.context() as m:
        probed_log = advance_log(m)
        probed = attempt_run(*args, **kwargs)
    with monkeypatch.context() as m:
        halved_log = advance_log(m)
        halving(m)
        halved = attempt_run(*args, **kwargs)
    assert_same_run(probed, halved)
    # the accepted steps are the same; the probe leaves out the rungs between
    assert [dt for dt, ok in probed_log if ok] == [dt for dt, ok in halved_log if ok]
    return probed, probed_log, halved_log


@pytest.mark.parametrize("index", [0, 7])
def test_probed_squeeze_equals_the_halving_loop(monkeypatch, index):
    (traj, error), probed_log, halved_log = compare_with_halving(
        monkeypatch, squeeze_state(index), SQUEEZE_PARAMS, SQUEEZE_CONFIG, SQUEEZE_MONITORS)
    # the squeeze ends in an episode where every rung fails
    assert error[0] is PositivityLoss and traj.terminated.kind == "PositivityLoss"
    rejected = sum(not ok for _, ok in probed_log)
    assert rejected < sum(not ok for _, ok in halved_log) // 5
    assert not halved_log[-1][1] and halved_log[-1][0] >= SQUEEZE_CONFIG.dt_min
    assert probed_log[-1] == halved_log[-1]  # it ends at the same last rung


def test_probed_bdf2_run_equals_the_halving_loop(monkeypatch):
    config = IntegratorConfig(dt_initial=2e-3, dt_min=1e-10, t_end=3.0, cfl_safety=0.5,
                              scheme="imex_bdf2")
    (traj, error), probed_log, _ = compare_with_halving(
        monkeypatch, squeeze_state(1), SQUEEZE_PARAMS, config, SQUEEZE_MONITORS)
    first_rejection = [ok for _, ok in probed_log].index(False)
    assert first_rejection > 1  # after the Euler start, so the rungs are BDF2 steps
    assert error[0] is PositivityLoss


def test_probe_equals_advance_at_each_rung(monkeypatch):
    """At a state where the squeeze rejects, the rung the probe picks is the
    first one whose ``advance`` passes, and every rung's coefficients along
    the probe's rung axis are those of a step of its own."""
    log = advance_log(monkeypatch)
    rejected_at = []
    probe = Stepper.probe

    def held(self, dt, dt_min):
        rejected_at.append((self.run_state, dt))
        return probe(self, dt, dt_min)
    monkeypatch.setattr(Stepper, "probe", held)
    attempt_run(squeeze_state(2), SQUEEZE_PARAMS, SQUEEZE_CONFIG, SQUEEZE_MONITORS)
    assert len(rejected_at) > 5 and not all(ok for _, ok in log)

    stepper = Stepper(squeeze_state(2), SQUEEZE_PARAMS, SQUEEZE_CONFIG)
    for run_state, dt in rejected_at[:4]:
        stepper.run_state = run_state
        rungs = [dt * 0.5 ** k for k in range(30) if dt * 0.5 ** k >= SQUEEZE_CONFIG.dt_min]
        ladder = stepper._step_hats(rungs)
        for k, rung in enumerate(rungs):
            single = stepper._step_hats(rung)
            assert same_bits(ladder[0][k, 0], single[0]) and same_bits(ladder[1][k], single[1])
        chosen = stepper.probe(dt, SQUEEZE_CONFIG.dt_min)
        passes = []
        for rung in rungs:
            try:
                stepper.advance(rung)
            except PositivityLoss:
                passes.append(False)
            else:
                passes.append(True)
                break
            finally:
                stepper.run_state = run_state
        assert chosen == rungs[passes.index(True) if True in passes else -1]


def flooded_run(monkeypatch):
    """An 8-point run whose velocity source, 1e307 at every point, sends the
    mean coefficient of w past the largest float at the larger rungs
    (NonFinite) and not at the smaller ones; its second step overflows at
    every rung."""
    grid = SpectralGrid(8)
    state = FieldState(ScalarField(grid, np.ones(8)), VectorField(grid, np.zeros((1, 8))))
    sources = (np.zeros(8), np.full((1, 8), 1e307))
    config = IntegratorConfig(dt_initial=4.0, dt_min=0.5, t_end=4.0, adaptive=False)
    with np.errstate(over="ignore", invalid="ignore"):
        return compare_with_halving(monkeypatch, state, VARIANT_PARAMS["effective_v2"],
                                    config, forcing=lambda t: sources)


def test_a_rung_that_fails_as_nonfinite(monkeypatch):
    (traj, error), probed_log, halved_log = flooded_run(monkeypatch)
    # 4 fails, 2 passes; then 2, 1 and 0.5 all fail: the run ends at 0.5
    assert halved_log == [(4.0, False), (2.0, True), (2.0, False), (1.0, False), (0.5, False)]
    assert probed_log == [(4.0, False), (2.0, True), (2.0, False), (0.5, False)]
    assert error[0] is NonFinite and traj.terminated.kind == "NonFinite"
    assert traj.terminated.time == 2.0 and math.isfinite(traj.states[-1].w.data[0, 0])


def test_squeeze_attempts_are_one_rejection_an_episode():
    """A return to trying one rung per attempt fails here, with no timing:
    study1d's first squeeze state took 348 advance calls (181 accepted, 167
    rejected in 12 episodes) and 909 transform calls with the halving loop."""
    count = squeeze_attempts(0)
    assert count["ended_by"] is PositivityLoss
    assert count["advance"] - count["rejected"] == 181
    # one rejection an episode, then the probe; the last episode fails at every rung
    assert count["probe"] == 12 and count["rejected"] == count["probe"] + 1
    assert count["probe_fft"] == count["probe"]  # one inverse call a probe
    assert count["fft"] == 767


def test_2d_run_tries_one_rung_per_attempt():
    grid = SpectralGrid((16, 16))
    stepper = Stepper(initial_state(grid, "random_smooth", {"mean": 1.2}, seed=1),
                      VARIANT_PARAMS["effective_v2"], SQUEEZE_CONFIG)
    assert stepper.probe(1e-3, 1e-10) == 1e-3


# ---------------------------------------------------------------------------
# the in-place step kernels against the plain expressions


def sine_forcing(grid):
    x = grid.meshgrid()[0]
    return lambda t: (0.1 * np.sin(x), 0.2 * np.stack([np.cos(x)] * grid.dim))


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
@pytest.mark.parametrize("variant", sorted(VARIANT_PARAMS))
@pytest.mark.parametrize("resolution", [64, 1024, 4096, (32, 32), (64, 64)])
def test_step_kernels_equal_the_plain_expressions(resolution, variant, forced):
    grid, params = SpectralGrid(resolution), VARIANT_PARAMS[variant]
    forcing = sine_forcing(grid) if forced else None
    state = initial_state(grid, "random_smooth", {"mean": 1.5, "amplitude": 0.4,
                                                  "velocity_amplitude": 0.5}, seed=5)
    stepper = Stepper(state, params, IntegratorConfig(dt_initial=1e-3, dt_min=1e-9, t_end=1.0,
                                                      scheme="imex_bdf2"), forcing)
    stepper.advance(1e-3)
    stepper.advance(5e-4)
    level_p, level_n = stepper.run_state.levels
    ksq = -grid.rfft_minus_beta_sq
    lam_rho, lam_w = stepper._rates
    dt = 2.5e-4
    assert all(map(same_bits,
                   timestepping._advance_euler(level_n, stepper._factors_of(dt, None), lam_w, dt),
                   reference_euler(level_n, lam_rho, ksq, params.mu, dt)))
    assert all(map(same_bits,
                   timestepping._advance_bdf2(level_n, level_p,
                                              stepper._factors_of(dt, level_n.dt_prev), lam_w, dt),
                   reference_bdf2(level_n, level_p, lam_rho, ksq, params.mu, dt)))

    d = stepper.derived
    sources = [] if forcing is None else list(forcing(d.time))
    got, expected = (kernel(SpectralState(d.state, params, d.rho_hat, d.w_hat), sources)
                     for kernel in (tendency_hats, reference_tendency_hats))
    assert all(map(same_bits, got, expected))
    # and they are the run's own tendencies of that state
    assert same_bits(level_n.n_rho_hat, got[0]) and same_bits(level_n.f_w_hat, got[1])
