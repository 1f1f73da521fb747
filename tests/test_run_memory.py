"""Runs and their report batches in one process: runs interleaved, and the
batches of several runs reported in turn, give each run's reports to the
bit, across grids, batch shapes and tail batches; the traced memory of a
step and of a report; and what a finished run leaves traced."""

import gc
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kortorus import cli, timestepping
from kortorus.functionals import MonitorSpec, evaluate_report, evaluate_reports
from kortorus.model import _DERIVED, ModelParams, SpectralState
from kortorus.scenarios import initial_state
from kortorus.spectral import SpectralGrid
from kortorus.timestepping import IntegratorConfig, RunState, Stepper, Trajectory, cfl_dt, run
from helpers import (
    advance_us,
    measure,
    report_peak_mb,
    run_peak_mb,
    simulate_minor_faults,
    step_report_peak_mb,
)

ROOT = Path(__file__).resolve().parents[1]

PARAMS = ModelParams(mu=0.1, alpha=0.0, kappa=0.01, a=1.0, gamma=2.0, variant="effective_v2")

#: resolution and steps of each run: N = 64 reports 32 states a batch, so its
#: 40 steps end in a tail batch of 8; 32^2 reports 2 a batch, so its 5 steps
#: end in a batch of 1; 64^2 reports one state a batch
RUNS = {"1d": (64, 40), "32x32": ((32, 32), 5), "64x64": ((64, 64), 3)}


def run_case(name: str) -> timestepping.Trajectory:
    resolution, steps = RUNS[name]
    state = initial_state(SpectralGrid(resolution), "random_smooth",
                          {"mean": 1.2, "amplitude": 0.25, "velocity_amplitude": 0.3}, seed=11)
    return run(state, PARAMS, IntegratorConfig(dt_initial=1e-3, dt_min=1e-9,
                                               t_end=steps * 1e-3, scheme="imex_bdf2"))


def csv_rows(trajectory) -> list[str]:
    """The rows ``cli._write_csv`` writes of the trajectory's reports."""
    out = io.StringIO()
    cli._write_csv(out, trajectory.reports, header=False)
    return out.getvalue().splitlines()


def fresh_process_rows(name: str) -> list[list[str]]:
    """The report rows of ``run_case(name)`` run alone in a new process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    code = ("import json, sys\n"
            "from test_run_memory import csv_rows, run_case\n"
            f"print(json.dumps(csv_rows(run_case({name!r}))))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_runs_interleaved_in_one_process_equal_each_run_alone():
    interleaved = {name: [] for name in RUNS}
    for _ in range(2):
        for name in RUNS:
            interleaved[name].append(csv_rows(run_case(name)))
    for name, (first, second) in interleaved.items():
        assert len(first) == RUNS[name][1] + 1
        assert first == second == fresh_process_rows(name), name


def recorded_batches(monkeypatch, name):
    """The report batches that ``run`` makes of ``run_case(name)``, each as
    copies of its states (built from their coefficients before the batch is
    reported); and the trajectory."""
    batches = []
    evaluate = timestepping.evaluate_reports

    def capturing(states, params, spec=None, previous=None):
        batches.append([SpectralState(s.state, params, s.rho_hat, s.w_hat) for s in states])
        return evaluate(states, params, spec, previous)
    monkeypatch.setattr(timestepping, "evaluate_reports", capturing)
    trajectory = run_case(name)
    monkeypatch.undo()
    return batches, trajectory


def fresh_copies(states):
    return [SpectralState(s.state, s.params, s.rho_hat, s.w_hat) for s in states]


def test_standalone_and_interleaved_batch_reports_equal_the_recorded_ones(monkeypatch):
    spec = MonitorSpec()
    cases = {name: recorded_batches(monkeypatch, name) for name in RUNS}
    for name, (batches, trajectory) in cases.items():
        # a tail batch of 8 on the 1D grid, of 1 on 32^2
        assert [len(states) for states in batches][-1] == {"1d": 8, "32x32": 1,
                                                           "64x64": 1}[name]
        reports = list(trajectory.reports)[1:]
        standalone = []
        for states in batches:
            for state in fresh_copies(states):
                previous = standalone[-1] if standalone else trajectory.reports[0]
                standalone.append(evaluate_report(state, PARAMS, spec, previous=previous))
        assert standalone == reports, name
    # the batches of the three runs, reported in turn in one process
    shared = {name: [] for name in RUNS}
    for turn in range(max(len(batches) for batches, _ in cases.values())):
        for name, (batches, trajectory) in cases.items():
            if turn < len(batches):
                previous = shared[name][-1] if shared[name] else trajectory.reports[0]
                shared[name] += evaluate_reports(fresh_copies(batches[turn]), PARAMS, spec,
                                                 previous=previous)
    for name, (_, trajectory) in cases.items():
        assert shared[name] == list(trajectory.reports)[1:], name


def test_report_peak_alone_stays_under_its_bound():
    # 1.86 MB, the inverse stage's outputs read one at a time; 2.51 MB when
    # all three are held at once, as they were made by one eager stage
    assert report_peak_mb(128, 2, 0) < 2.0


def test_step_and_report_peaks_in_a_run_stay_under_their_bounds():
    step, report = step_report_peak_mb(128, 2, 0)
    assert report < 2.0
    # step kernels that form every sum as a new array trace 3.97 MB; the
    # in-place ones 3.43 MB
    assert step < 3.8


def test_run_peak_stays_under_its_bound():
    # 7.41 MB; 8.60 MB with a report that holds its three inverse outputs at
    # once and a grid that caches the (dim, dim) table of Hessian multipliers
    assert run_peak_mb(128, 4, 0) < 7.9


@pytest.mark.parametrize("resolution", [64, (32, 32), (128, 128)])
def test_a_reported_state_keeps_only_its_samples_and_coefficients(fft_count, resolution):
    state = initial_state(SpectralGrid(resolution), "random_smooth",
                          {"mean": 1.2, "amplitude": 0.25, "velocity_amplitude": 0.3}, seed=5)
    config = IntegratorConfig(dt_initial=1e-3, dt_min=1e-9, t_end=1.0, scheme="imex_bdf2")
    steppers = []
    for _ in range(2):
        stepper = Stepper(state, PARAMS, config)
        for _ in range(2):
            stepper.advance(cfl_dt(stepper.derived, PARAMS, config) / 4)
        steppers.append(stepper)
    # one reported as ``run`` reports it: the step-size bound, then the batch
    reported, twin = steppers
    dt = cfl_dt(reported.derived, PARAMS, config) / 4
    reported.run_state = RunState(reported.run_state.levels, None, (reported.derived,))
    trajectory = Trajectory(PARAMS)
    trajectory.record(evaluate_reports([state], PARAMS))  # the report before
    timestepping._report_pending(reported, trajectory, MonitorSpec())
    assert [name for name in _DERIVED if reported.derived.holds(name)] == ["rho_hat", "w_hat"]
    # nothing the step reads is made again
    budgets = [measure(fft_count, lambda: stepper.advance(dt)) for stepper in steppers]
    assert budgets[0] == budgets[1]
    assert budgets[0]["calls"] == (4 if reported.derived.grid.dim == 1 else 7)
    assert np.array_equal(reported.state.rho.data, twin.state.rho.data)
    assert np.array_equal(reported.state.w.data, twin.state.w.data)


def test_simulate_minor_faults_counts_each_run(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "grid": {"resolution": [32]},
        "model": {"variant": "effective_v2", "mu": 0.1, "kappa": 0.01, "a": 1.0},
        "integrator": {"dt_initial": 1e-3, "t_end": 0.005},
        "initial": {"family": "random_smooth", "seed": 1,
                    "params": {"mean": 1.2, "amplitude": 0.25, "velocity_amplitude": 0.3}}}))
    runs = simulate_minor_faults(config, 2)
    assert len(runs) == 2
    assert all(isinstance(faults, int) and faults >= 0 and seconds > 0.0
               for faults, seconds in runs)


def test_advance_us_times_the_steps_alone(monkeypatch):
    calls = []
    advance = Stepper.advance
    monkeypatch.setattr(Stepper, "advance", lambda self, dt: calls.append(dt) or advance(self, dt))
    us = advance_us(PARAMS, 16, 3, 2)
    assert calls == [1e-3] * 6 and 0.0 < us < math.inf


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_finished_run_leaves_nothing_traced_but_its_trajectory(name):
    # a first run fills the caches numpy and scipy keep, outside the trace
    run_case(name)
    gc.collect()
    tracemalloc.start()
    try:
        trajectory = run_case(name)
        held = tracemalloc.get_traced_memory()[0]
        samples = sum(s.rho.data.nbytes + s.w.data.nbytes for s in trajectory.states)
        del trajectory
        gc.collect()
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # the trajectory holds 0.1-0.7 MB, more than its states' samples (42 KB
    # in 1D), so that it was traced; once it is gone about 1-3 KB stay
    # traced (interpreter bookkeeping), under one 32^2 field (8 KB).  A run
    # that kept its Stepper past its end leaves 66 KB or more, and one that
    # kept the coefficients of its last report batch 12 KB or more
    assert held > samples and left < 8_000, (held, samples, left)
