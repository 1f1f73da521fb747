"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Shared trajectories (the five seeded 1D scenarios)
are computed once and reused by the energy, weighted-kinetic, and mass
criteria.  Criteria 01-03 and 08-10 apply the checks of ``kortorus verify``
(kortorus.verify) to corpora of their own.
"""

import math
import time

import numpy as np
import pytest
import sympy as sp

from kortorus import verify
from kortorus.errors import PositivityLoss
from kortorus.functionals import MonitorSpec
from kortorus.littlewood_paley import family_for
from kortorus.model import ModelParams, rhs
from kortorus.scenarios import (
    besov_corpus,
    density_corpus,
    initial_state,
    manufactured_solution,
)
from kortorus.spectral import SpectralGrid
from kortorus.timestepping import IntegratorConfig, run
from manufactured_reference import SOLUTIONS

P_V2 = ModelParams(mu=1.0, alpha=0.0, kappa=1.0, a=1.0, gamma=2.0, variant="effective_v2")
KAPPA = 1.0

CORPUS_SEED = 1234
N_1D, N_2D = 12, 8  # twenty densities total


def report(num: int, name: str, passed: bool, detail: str = "") -> bool:
    status = "PASS" if passed else "FAIL"
    extra = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {status}: {name}{extra}")
    return passed


def report_checks(num: int, name: str, results) -> bool:
    """The criterion line for verify checks: it passes when every check does."""
    results = list(results)
    return report(num, name, all(r.passed for r in results),
                  ", ".join(f"{r.name} {r.value:.2e}" for r in results))


@pytest.fixture(scope="module")
def densities_fine():
    one_d = density_corpus(SpectralGrid(256), N_1D, seed=CORPUS_SEED, lo=1.0, hi=3.0)
    two_d = density_corpus(SpectralGrid((128, 128)), N_2D, seed=CORPUS_SEED + 1,
                           lo=1.0, hi=3.0)
    return [verify.DensityFields(rho, KAPPA) for rho in one_d + two_d]


@pytest.fixture(scope="module")
def energy_runs():
    """Five seeded smooth 1D scenarios of the simplified system at dt and dt/2."""
    grid = SpectralGrid(64)
    runs = {}
    start = time.monotonic()
    for seed in range(5):
        state = initial_state(grid, "random_smooth",
                              {"mean": 1.2, "amplitude": 0.25,
                               "velocity_amplitude": 0.3, "modes": 3}, seed=seed)
        for dt in (2e-3, 1e-3):
            cfg = IntegratorConfig(dt_initial=dt, dt_min=1e-12, t_end=1.0,
                                   adaptive=False)
            runs[(seed, dt)] = run(state, P_V2, cfg)
    runs["elapsed"] = time.monotonic() - start
    return runs


def test_criterion_01_capillary_tensor_equivalence(densities_fine):
    start = time.monotonic()
    (gap,) = verify.check_capillary_gap(densities_fine)
    elapsed = time.monotonic() - start
    ok = gap.passed and elapsed < 10.0
    assert report(1, "capillary-tensor general vs closed form on 20-density corpus",
                  ok, f"worst rel L2 {gap.value:.2e}, {elapsed:.2f}s")


def test_criterion_02_pointwise_identities(densities_fine):
    results = [*verify.check_laplacian_log(densities_fine),
               *verify.check_vacuum_identity([d.rho for d in densities_fine], P_V2, 3.0)]

    # spectral convergence: the same corpus functions sampled one doubling
    # below the truncation floor must lose at least 100x residual per doubling
    factors = []
    for dim, resolutions, n, seed in ((1, (64, 128), N_1D, CORPUS_SEED),
                                      (2, (32, 64), N_2D, CORPUS_SEED + 1)):
        residuals = []
        for res in resolutions:
            grid = SpectralGrid(res if dim == 1 else (res, res))
            corp = density_corpus(grid, n, seed=seed, lo=1.0, hi=3.0)
            residuals.append(max(
                max(verify.laplacian_log_residual(verify.DensityFields(r, KAPPA)),
                    verify.vacuum_identity_residual(r, P_V2, 3.0)) for r in corp))
        factors.append(residuals[0] / max(residuals[1], 1e-300))
    results.append(verify.CheckResult("smallest residual factor per doubling", min(factors),
                                      100.0, min(factors) >= 100.0))
    assert report_checks(2, "pointwise identities hold and converge spectrally", results)


def test_criterion_03_integration_by_parts(densities_fine):
    assert report_checks(3, "capillary stress against grad(ln rho) integrates by parts",
                         verify.check_integration_by_parts(densities_fine))


def _monotonicity_residual(traj):
    E = [r.effective_energy for r in traj.reports]
    return max(0.0, max(b - a for a, b in zip(E, E[1:])))


def _balance_defect(traj):
    E = [r.effective_energy for r in traj.reports]
    D = [r.eff_energy_rate_viscous + r.eff_energy_rate_pressure for r in traj.reports]
    ts = [r.time for r in traj.reports]
    return max(abs(E[k + 1] - E[k] + (ts[k + 1] - ts[k]) * D[k])
               for k in range(len(E) - 1))


def test_criterion_04_energy_decay(energy_runs):
    ok = True
    details = []
    for seed in range(5):
        r_coarse = _monotonicity_residual(energy_runs[(seed, 2e-3)])
        r_fine = _monotonicity_residual(energy_runs[(seed, 1e-3)])
        ok &= r_fine <= 0.5 * r_coarse + 1e-13
        # non-vacuous first-order refinement of the discrete energy balance
        d_coarse = _balance_defect(energy_runs[(seed, 2e-3)])
        d_fine = _balance_defect(energy_runs[(seed, 1e-3)])
        ok &= d_fine <= 0.65 * d_coarse
        details.append(f"s{seed}: inc {r_coarse:.1e}->{r_fine:.1e} "
                       f"defect {d_coarse:.1e}->{d_fine:.1e}")
    elapsed = energy_runs["elapsed"]
    ok &= elapsed < 60.0
    assert report(4, "effective energy non-increasing, residual halves with dt",
                  ok, f"{'; '.join(details)}; {elapsed:.1f}s")


def test_criterion_05_weighted_kinetic_inequality(energy_runs):
    ok = True
    details = []
    for seed in range(5):
        residuals = []
        for dt in (2e-3, 1e-3):
            traj = energy_runs[(seed, dt)]
            viol = []
            for k in range(len(traj.reports) - 1):
                r0, r1 = traj.reports[k], traj.reports[k + 1]
                h = r1.time - r0.time
                lhs = (r1.mv_value - r0.mv_value) / h + r0.mv_rate_dissipation
                viol.append(lhs - r0.mv_rhs_bound)
            residuals.append(max(0.0, max(viol)))
        ok &= residuals[1] <= 0.5 * residuals[0] + 1e-12
        details.append(f"s{seed}: {residuals[0]:.1e}->{residuals[1]:.1e}")
    assert report(5, "weighted-kinetic rate inequality with first-order residual",
                  ok, "; ".join(details))


def test_criterion_06_mass_conservation(energy_runs):
    worst = 0.0
    for seed in range(5):
        for dt in (2e-3, 1e-3):
            masses = [r.mass for r in energy_runs[(seed, dt)].reports]
            worst = max(worst, max(abs(m - masses[0]) for m in masses) / abs(masses[0]))
    ok = worst < 1e-11
    assert report(6, "mass conserved on every accepted run", ok,
                  f"worst relative drift {worst:.2e}")


def test_criterion_07_manufactured_convergence():
    floor = 1e-11
    spatial_ok = True
    spatial_details = []
    for sid, resolutions in (("ms1d", (16, 32, 64)), ("ms2d", (16, 32, 64))):
        ms, ref = manufactured_solution(sid), SOLUTIONS[sid]
        t = sp.Symbol("t")
        rho_t = ref.lambdify(sp.diff(ref.rho_expr, t))
        v_t = [ref.lambdify(sp.diff(e, t)) for e in ref.v_exprs]
        residuals = []
        for res in resolutions:
            grid = SpectralGrid(res if ms.dim == 1 else (res, res))
            state = ms.state(grid, 0.0)
            drho, dv = rhs(state, P_V2)
            f_rho, f_v = ms.forcing(grid, P_V2)(0.0)
            mesh = grid.meshgrid()
            err = float(np.max(np.abs(
                drho.data + f_rho - np.broadcast_to(rho_t(0.0, *mesh), grid.shape))))
            for j, fn in enumerate(v_t):
                err = max(err, float(np.max(np.abs(
                    dv.data[j] + f_v[j]
                    - np.broadcast_to(fn(0.0, *mesh), grid.shape)))))
            residuals.append(err)
        checked = 0
        for coarse, fine in zip(residuals, residuals[1:]):
            if coarse >= 100.0 * floor:
                spatial_ok &= coarse / max(fine, 1e-300) >= 100.0
                checked += 1
        spatial_ok &= checked >= 1
        spatial_details.append(
            sid + ": " + " -> ".join(f"{r:.1e}" for r in residuals))

    grid = SpectralGrid(64)
    ms = manufactured_solution("ms1d")
    forcing = ms.forcing(grid, P_V2)
    T = 0.4
    orders = {}
    for scheme in ("imex_euler", "imex_bdf2"):
        errors = []
        for nsteps in (80, 160):
            cfg = IntegratorConfig(dt_initial=T / nsteps, dt_min=1e-12, t_end=T,
                                   scheme=scheme, adaptive=False)
            traj = run(ms.state(grid, 0.0), P_V2, cfg, forcing=forcing)
            exact = ms.state(grid, T)
            errors.append(max(
                float(np.max(np.abs(traj.final_state.rho.data - exact.rho.data))),
                float(np.max(np.abs(traj.final_state.w.data - exact.w.data)))))
        orders[scheme] = math.log2(errors[0] / errors[1])
    temporal_ok = orders["imex_euler"] >= 0.9 and orders["imex_bdf2"] >= 1.8
    ok = spatial_ok and temporal_ok
    assert report(7, "manufactured solutions: spectral in space, ordered in time",
                  ok, "; ".join(spatial_details)
                  + f"; euler order {orders['imex_euler']:.2f}, "
                    f"bdf2 order {orders['imex_bdf2']:.2f}")


def test_criterion_08_dyadic_structure():
    grids = (SpectralGrid(64), SpectralGrid(256),
             SpectralGrid((64, 64)), SpectralGrid((128, 128)))
    results = list(verify.check_dyadic_structure(
        [(grid, besov_corpus(grid, 2, seed=CORPUS_SEED + 7),
          ((0, 2), (1, 4), (-1, 1), (2, family_for(grid).q_max))) for grid in grids],
        shift=0.5))
    assert report_checks(8, "dyadic partition, block supports, reconstruction", results)


def test_criterion_09_norm_equivalences():
    grid = SpectralGrid(128)
    doubled = besov_corpus(grid, 200, seed=CORPUS_SEED + 8)
    results = list(verify.check_norm_equivalences(
        doubled[:50], doubled, besov_corpus(SpectralGrid(256), 100, seed=CORPUS_SEED + 9)))
    assert report_checks(9, "Besov/Sobolev equivalence and derivative-norm ratios", results)


def test_criterion_10_heat_maximal_regularity():
    mu, T = 0.7, 1.3
    results = list(verify.check_heat_oracle(SpectralGrid(128), mu, T))

    # refinement holds the problem fixed: the same analytic initial datum and
    # forcing sampled at doubled resolution (and doubled time quadrature)
    def problem(res, n_time):
        grid = SpectralGrid(res)
        x = grid.axes()[0]
        u0 = np.exp(0.8 * np.sin(x)) * np.cos(2 * x)
        f = np.exp(0.5 * np.cos(2 * x)) * np.sin(3 * x)
        return grid.scalar(u0 - u0.mean()), grid.scalar(f - f.mean()), n_time

    for rho1, rho2 in ((math.inf, math.inf), (1.0, 1.0), (2.0, 1.0)):
        results += verify.check_heat_drift(problem(128, 129), problem(256, 257),
                                           mu, T, rho1, rho2)
    assert report_checks(10, "parabolic maximal-regularity constants", results)


def test_criterion_11_vacuum_monitor_ordering():
    mu = 0.05
    params = ModelParams(mu=mu, alpha=0.0, kappa=mu ** 2, a=0.01, gamma=2.0,
                         variant="effective_v2")
    grid = SpectralGrid(64)
    monitors = MonitorSpec(epsilon=0.75, delta_vacuum=0.25)
    ok = True
    crossings = []
    for seed in range(10):
        rng = np.random.default_rng(2000 + seed)
        spec = {"mean": 1.0,
                "depth": 0.90 + 0.06 * rng.uniform(),
                "width": 0.45 + 0.15 * rng.uniform(),
                "center": [0.25 + 0.5 * rng.uniform()],
                "velocity_amplitude": 2.6 + 0.5 * rng.uniform()}
        state = initial_state(grid, "gaussian_bump", spec)
        cfg = IntegratorConfig(dt_initial=2e-3, dt_min=1e-10, t_end=3.0,
                               cfl_safety=0.5)
        try:
            run(state, params, cfg, monitors=monitors)
            ok = False
            crossings.append("no blow-up")
            continue
        except PositivityLoss as exc:
            traj = exc.trajectory
        except Exception:
            ok = False
            crossings.append("wrong signal")
            continue
        series = [r.vacuum_indicator for r in traj.reports]
        level = 10.0 * series[0]
        crossed = next((i for i, v in enumerate(series) if v > level), None)
        # mass must stay conserved on the accepted prefix of the run
        masses = [r.mass for r in traj.reports]
        drift = max(abs(m - masses[0]) for m in masses) / abs(masses[0])
        good = (crossed is not None and crossed < len(series) - 1 and drift < 1e-11)
        ok &= good
        crossings.append(f"{crossed}/{len(series) - 1}" if crossed is not None else "-")
    assert report(11, "vacuum indicator exceeds 10x before positivity loss "
                      "(10-seed sweep)", ok, "crossings " + ", ".join(crossings))
