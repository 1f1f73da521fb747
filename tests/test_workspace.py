"""The Stepper's workspace: the arrays that a report batch takes outlive it
and are reused by every report batch of a run, without moving a bit of any
output, across grids, batch shapes and tail batches; and the memory that a
step, whose kernels form their sums in place, and a report take."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kortorus import timestepping
from kortorus.functionals import MonitorSpec, evaluate_report, evaluate_reports
from kortorus.model import ModelParams, SpectralState
from kortorus.scenarios import initial_state
from kortorus.spectral import SpectralGrid, Workspace
from kortorus.timestepping import IntegratorConfig, Stepper, run
from helpers import advance_us, simulate_minor_faults, step_report_peak_mb

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


def csv_rows(trajectory) -> list[list[str]]:
    return [report.csv_row() for report in trajectory.reports]


def fresh_process_rows(name: str) -> list[list[str]]:
    """The report rows of ``run_case(name)`` run alone in a new process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    code = ("import json, sys\n"
            "from test_workspace import csv_rows, run_case\n"
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
    """The report batches that ``run`` makes of ``run_case(name)``: each as
    copies of its states (built from their coefficients before the batch is
    reported) and the dt before each; and the trajectory."""
    batches = []
    evaluate = timestepping.evaluate_reports

    def capturing(states, params, spec=None, previous=None, _workspace=None):
        batches.append(([SpectralState(s.state, params, s.rho_hat, s.w_hat) for s in states],
                        previous[1]))
        return evaluate(states, params, spec, previous, _workspace)
    monkeypatch.setattr(timestepping, "evaluate_reports", capturing)
    trajectory = run_case(name)
    monkeypatch.undo()
    return batches, trajectory


def fresh_copies(states):
    return [SpectralState(s.state, s.params, s.rho_hat, s.w_hat) for s in states]


def test_standalone_and_shared_workspace_reports_equal_the_recorded_ones(monkeypatch):
    spec = MonitorSpec()
    cases = {name: recorded_batches(monkeypatch, name) for name in RUNS}
    for name, (batches, trajectory) in cases.items():
        # a tail batch of 8 on the 1D grid, of 1 on 32^2
        assert [len(states) for states, _ in batches][-1] == {"1d": 8, "32x32": 1,
                                                              "64x64": 1}[name]
        reports = trajectory.reports[1:]
        standalone = []
        for states, dts in batches:
            for state, dt in zip(fresh_copies(states), dts):
                previous = standalone[-1] if standalone else trajectory.reports[0]
                standalone.append(evaluate_report(state, PARAMS, spec, previous=(previous, dt)))
        assert standalone == reports, name
    # one workspace for every batch of the three runs, taken in turn
    workspace, shared = Workspace(), {name: [] for name in RUNS}
    for turn in range(max(len(batches) for batches, _ in cases.values())):
        for name, (batches, trajectory) in cases.items():
            if turn < len(batches):
                states, dts = batches[turn]
                previous = shared[name][-1] if shared[name] else trajectory.reports[0]
                shared[name] += evaluate_reports(fresh_copies(states), PARAMS, spec,
                                                 previous=(previous, dts), _workspace=workspace)
    for name, (_, trajectory) in cases.items():
        assert shared[name] == trajectory.reports[1:], name


def test_workspace_hands_out_given_back_arrays_by_size():
    ws = Workspace()
    with ws:
        fields = ws.take((4, 128, 128))
        # four fields take the size of their rfft coefficients
        coefficients = ws.take((4, 128, 65), complex)
        assert not np.shares_memory(fields, coefficients)
        ws.give(fields)
        tensor_hat = ws.take((2, 2, 128, 65), complex)
        assert np.shares_memory(tensor_hat, fields)
        assert tensor_hat.dtype == complex and tensor_hat.flags.c_contiguous
        small = ws.take((64,))
        ws.give(small, np.empty(3))  # not from the pool, left alone
    # the block gave back both buffers, and the next block takes them again
    with ws:
        again = [ws.take((4, 128, 128)), ws.take((1, 4, 128, 65), complex)]
        assert {id(a.base) for a in again} == {id(fields.base), id(coefficients.base)}


def test_step_and_report_peaks_stay_under_the_figures_before_the_workspace():
    # before the workspace, the step traced 4.36 MB and its report 3.97 MB
    step, report = step_report_peak_mb(128, 2, 0)
    assert step < 4.36 and report < 3.97
    # step kernels that form every sum as a new array trace 3.97 MB; the
    # in-place ones 3.43 MB
    assert step < 3.8


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
def test_runs_give_back_everything_they_take(monkeypatch, name):
    made = []
    init = Workspace.__init__

    def recording(self):
        init(self)
        made.append(self)
    monkeypatch.setattr(Workspace, "__init__", recording)
    run_case(name)
    assert made and all(not ws._taken and not ws._blocks for ws in made)
