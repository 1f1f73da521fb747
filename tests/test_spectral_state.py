"""The spectral-state core: agreement with an independent complex-FFT
assembly of the right-hand side, and the transform budget of one step and
one report (counts, so machine-independent)."""

import numpy as np
import pytest
import scipy.fft

from kortorus.functionals import evaluate_report
from kortorus.model import ModelParams, rhs
from kortorus.scenarios import initial_state
from kortorus.spectral import SpectralGrid
from kortorus.timestepping import IntegratorConfig, Stepper, cfl_dt
from helpers import reference_rhs, rel_linf

VARIANT_PARAMS = {
    "original": ModelParams(mu=1.0, alpha=0.3, kappa=0.5, a=1.0, gamma=1.4),
    "effective_v1": ModelParams(mu=1.0, alpha=0.5, kappa=0.5, a=1.0, gamma=2.0,
                                variant="effective_v1"),
    "effective_v2": ModelParams(mu=0.5, alpha=0.0, kappa=0.25, a=2.0, gamma=1.4,
                                variant="effective_v2"),
}

FFT_ENTRY_POINTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                    "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


def smooth_state(resolution, seed):
    return initial_state(SpectralGrid(resolution), "random_smooth",
                         {"mean": 1.5, "amplitude": 0.4, "velocity_amplitude": 0.5,
                          "modes": 5}, seed=seed)


@pytest.mark.parametrize("variant", sorted(VARIANT_PARAMS))
@pytest.mark.parametrize("resolution,seed", [(64, 3), ((32, 32), 4)])
def test_rhs_matches_complex_fft_reference(variant, resolution, seed):
    params = VARIANT_PARAMS[variant]
    state = smooth_state(resolution, seed)
    drho, dw = rhs(state, params)
    ref_rho, ref_w = reference_rhs(state.rho.data, state.w.data, state.grid, params)
    assert rel_linf(drho.data, ref_rho) < 1e-12
    assert rel_linf(dw.data, ref_w) < 1e-12


@pytest.fixture
def fft_count(monkeypatch):
    """Calls and transformed points of every numpy.fft/scipy.fft entry point."""
    count = {"calls": 0, "points": 0}
    for module in (np.fft, scipy.fft):
        for name in FFT_ENTRY_POINTS:
            fn = getattr(module, name, None)
            if fn is None:
                continue

            def counted(x, *args, _fn=fn, **kwargs):
                count["calls"] += 1
                count["points"] += np.asarray(x).size
                return _fn(x, *args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    return count


def measure(count, fn):
    before = dict(count)
    fn()
    return {k: count[k] - before[k] for k in count}


def test_fft_budget_2d_effective_bdf2_step_and_report(fft_count):
    params = VARIANT_PARAMS["effective_v2"]
    config = IntegratorConfig(dt_initial=1e-3, dt_min=1e-9, t_end=1.0, scheme="imex_bdf2")
    state = smooth_state((32, 32), 5)
    stepper = Stepper(state, params, config)
    stepper.advance(1e-3)  # bootstrap step; the next one is BDF2

    def one_step():  # as in timestepping.run: step-size bound, then the step
        stepper.advance(min(1e-3, cfl_dt(stepper.derived, params, config)))
    step = measure(fft_count, one_step)
    report = measure(fft_count, lambda: evaluate_report(stepper.derived, params))
    size = state.rho.data.size
    assert step["calls"] <= 24 and step["points"] <= 24 * size
    assert report["calls"] <= 20 and report["points"] <= 20 * size


def test_fft_budget_1d_original_step(fft_count):
    params = VARIANT_PARAMS["original"]
    config = IntegratorConfig(dt_initial=1e-4, dt_min=1e-9, t_end=1.0)
    state = smooth_state(128, 6)
    stepper = Stepper(state, params, config)
    step = measure(fft_count, lambda: stepper.advance(
        min(1e-4, cfl_dt(stepper.derived, params, config))))
    assert step["calls"] <= 24 and step["points"] <= 24 * state.rho.data.size
