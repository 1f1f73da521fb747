"""The benchmark's three workloads.

Each workload object does its set-up in ``__init__`` (the part a user pays
before the first useful call), offers a short untimed ``warmup`` and a
``round``: one fixed batch of operations whose outputs are checked.  A run
repeats whole rounds, so the share of failed operations is the same
whatever the run length.  Calls into kortorus go through module attributes
(``timestepping.run``, ``cli.main``) so that the traced run's wrappers see
them.

* ``evolve2d``      one ``kortorus simulate`` of effective_v2 on 128^2,
                    200 imex_bdf2 steps: large FFTs, reports, CSV output.
* ``study1d``       a 1D desk study: ms1d convergence runs, one original-
                    variant run and the vacuum-squeeze sweep; tiny arrays,
                    so per-call overhead, reject-and-halve retries and the
                    manufactured forcing dominate.
* ``verify_seeds``  ``kortorus verify all`` for two seeds: Littlewood-Paley
                    and verify code with no time stepping.

Every time-stepping run keeps dt at ``dt_initial``, well inside the
advective, acoustic and viscous limits, so a more complete step controller
leaves the step counts unchanged.  Import this module only after the
traced run's wrappers are installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from kortorus import cli, scenarios, timestepping
from kortorus.errors import KortorusError, PositivityLoss
from kortorus.functionals import MonitorSpec
from kortorus.model import ModelParams
from kortorus.spectral import SpectralGrid
from kortorus.timestepping import IntegratorConfig

import checks


@dataclass
class RoundResult:
    """Operations of one round; ``wall_s`` covers the calls into kortorus
    only, not the benchmark's reading and checking of their outputs."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    output_bytes: int = 0
    wall_s: float = 0.0

    def timed(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.wall_s += time.perf_counter() - t0


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class Evolve2D:
    """``kortorus simulate`` through ``kortorus.cli.main``."""

    N = 128
    STEPS = 200
    DT = 1e-3
    MEAN = 1.2

    def __init__(self, seed: int, outdir: Path):
        self.outdir = outdir / "evolve2d"
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.t_end = self.STEPS * self.DT
        self.config = self.outdir / "config.json"
        self.warm_config = self.outdir / "warmup.json"
        self.config.write_text(self._document(seed, self.t_end))
        self.warm_config.write_text(self._document(seed, 3 * self.DT))

    def _document(self, seed: int, t_end: float) -> str:
        return json.dumps({
            "grid": {"resolution": [self.N, self.N]},
            "model": {"variant": "effective_v2", "mu": 0.1, "kappa": 0.01, "a": 1.0},
            "integrator": {"scheme": "imex_bdf2", "dt_initial": self.DT,
                           "t_end": t_end},
            "initial": {"family": "random_smooth", "seed": seed,
                        "params": {"mean": self.MEAN, "amplitude": 0.25,
                                   "velocity_amplitude": 0.3}},
            "output": {"label": "evolve2d"},
        })

    def warmup(self):
        _cli(["simulate", str(self.warm_config), "--output", str(self.outdir / "warm")])

    def round(self) -> RoundResult:
        run_dir = self.outdir / "run"
        res = RoundResult(attempted=1)
        code, printed = res.timed(_cli, ["simulate", str(self.config),
                                         "--output", str(run_dir)])
        if code != 0:
            res.failed = 1
            res.problems.append(f"simulate exited {code}")
            return res
        res.output_bytes = len(printed.encode()) + sum(
            p.stat().st_size for p in run_dir.iterdir() if p.is_file())
        summary = json.loads((run_dir / "summary.json").read_text())
        rows = checks.read_csv_rows((run_dir / "functionals.csv").read_text())
        res.problems = checks.check_evolve2d(
            summary, rows, steps=self.STEPS, t_end=self.t_end,
            mean=self.MEAN, area=(2.0 * math.pi) ** 2)
        return res


class Study1D:
    """ms1d convergence, one original-variant run and the squeeze sweep."""

    MS_N = 64
    MS_T = 0.4
    MS_STEPS = (80, 160, 320)
    MIN_ORDER = {"imex_euler": 0.9, "imex_bdf2": 1.8}
    ORIG_N = 128
    ORIG_DT = 2.5e-4
    ORIG_STEPS = 1000
    SQUEEZE_RUNS = 10

    def __init__(self, seed: int, outdir: Path):
        self.ms_params = ModelParams(mu=1.0, alpha=0.0, kappa=1.0, a=1.0, gamma=2.0,
                                     variant="effective_v2")
        ms = scenarios.manufactured_solution("ms1d")
        ms_grid = SpectralGrid(self.MS_N)
        self.forcing = ms.forcing(ms_grid, self.ms_params)
        self.ms_state = ms.state(ms_grid, 0.0)
        self.ms_exact = checks.ms1d_exact(self.MS_T, self.MS_N)

        # the original (rho, u) system, from a seeded smooth state
        self.orig_params = ModelParams(mu=1.0, alpha=0.0, kappa=1.0, a=1.0, gamma=2.0,
                                       variant="original")
        self.orig_state = scenarios.initial_state(
            SpectralGrid(self.ORIG_N), "random_smooth",
            {"mean": 1.2, "amplitude": 0.25, "velocity_amplitude": 0.3}, seed=seed)
        self.orig_config = IntegratorConfig(
            dt_initial=self.ORIG_DT, dt_min=1e-9, t_end=self.ORIG_STEPS * self.ORIG_DT)

        # the vacuum-squeeze sweep of acceptance criterion 11; its states are
        # fixed so that every seed does the same work and blows up
        mu = 0.05
        self.sq_params = ModelParams(mu=mu, alpha=0.0, kappa=mu ** 2, a=0.01, gamma=2.0,
                                     variant="effective_v2")
        self.sq_monitors = MonitorSpec(epsilon=0.75, delta_vacuum=0.25)
        self.sq_config = IntegratorConfig(dt_initial=2e-3, dt_min=1e-10, t_end=3.0,
                                          cfl_safety=0.5)
        sq_grid = SpectralGrid(64)
        self.sq_states = []
        for i in range(self.SQUEEZE_RUNS):
            rng = np.random.default_rng(2000 + i)
            spec = {"mean": 1.0,
                    "depth": 0.90 + 0.06 * rng.uniform(),
                    "width": 0.45 + 0.15 * rng.uniform(),
                    "center": [0.25 + 0.5 * rng.uniform()],
                    "velocity_amplitude": 2.6 + 0.5 * rng.uniform()}
            self.sq_states.append(scenarios.initial_state(sq_grid, "gaussian_bump", spec))

    def _ms_config(self, scheme: str, steps: int):
        return IntegratorConfig(dt_initial=self.MS_T / steps, dt_min=1e-12,
                                     t_end=self.MS_T, scheme=scheme, adaptive=False)

    def warmup(self):
        timestepping.run(self.ms_state, self.ms_params,
                         self._ms_config("imex_bdf2", self.MS_STEPS[0]),
                         forcing=self.forcing)
        timestepping.run(self.orig_state, self.orig_params,
                         IntegratorConfig(dt_initial=self.ORIG_DT, dt_min=1e-9,
                                          t_end=10 * self.ORIG_DT))

    def round(self) -> RoundResult:
        res = RoundResult()
        rho_exact, v_exact = self.ms_exact
        errors = {}
        for scheme in self.MIN_ORDER:
            errors[scheme] = []
            for steps in self.MS_STEPS:
                res.attempted += 1
                try:
                    traj = res.timed(timestepping.run, self.ms_state, self.ms_params,
                                     self._ms_config(scheme, steps),
                                     forcing=self.forcing)
                except KortorusError:
                    res.failed += 1
                    errors[scheme].append(math.nan)
                    continue
                final = traj.final_state
                errors[scheme].append(max(
                    float(np.max(np.abs(final.rho.data - rho_exact))),
                    float(np.max(np.abs(final.w.data[0] - v_exact)))))
        res.problems += checks.check_convergence(errors, self.MIN_ORDER)

        res.attempted += 1
        try:
            traj = res.timed(timestepping.run, self.orig_state, self.orig_params,
                             self.orig_config)
        except KortorusError:
            res.failed += 1
        else:
            if len(traj.reports) != self.ORIG_STEPS + 1:
                res.problems.append(f"original-variant run took {len(traj.reports) - 1} "
                                    f"steps, expected {self.ORIG_STEPS}")
            res.problems += checks.check_mass([r.mass for r in traj.reports], 1e-12,
                                              "original-variant run")

        for state in self.sq_states:
            res.attempted += 1
            try:
                traj = res.timed(timestepping.run, state, self.sq_params,
                                 self.sq_config, monitors=self.sq_monitors)
                ended_by = "completed"
            except PositivityLoss as exc:
                traj = exc.trajectory
                ended_by = "PositivityLoss"
            except KortorusError:
                res.failed += 1
                continue
            res.problems += checks.check_squeeze(
                ended_by, [r.vacuum_indicator for r in traj.reports],
                [r.mass for r in traj.reports])
        return res


class VerifySeeds:
    """``kortorus verify all --seed k`` for two seeds derived from the run seed."""

    CHECKS_PER_SEED = 24

    def __init__(self, seed: int, outdir: Path):
        self.seeds = [2 * seed, 2 * seed + 1]

    def warmup(self):
        _cli(["verify", "all", "--seed", str(self.seeds[0])])

    def round(self) -> RoundResult:
        res = RoundResult()
        for k in self.seeds:
            res.attempted += self.CHECKS_PER_SEED
            try:
                code, printed = res.timed(_cli, ["verify", "all", "--seed", str(k)])
            except Exception as exc:  # a crashing suite fails all its checks
                res.failed += self.CHECKS_PER_SEED
                print(f"verify all --seed {k} raised {exc!r}", file=sys.stderr)
                continue
            res.output_bytes += len(printed.encode())
            lines = printed.splitlines()
            res.failed += sum(line.startswith("FAIL") for line in lines)
            res.problems += [f"seed {k}: {p}" for p in checks.check_verify(
                code, lines, self.CHECKS_PER_SEED)]
        return res


WORKLOADS = {"evolve2d": Evolve2D, "study1d": Study1D, "verify_seeds": VerifySeeds}
