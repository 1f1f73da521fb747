"""The spectral-state core: agreement with an independent complex-FFT
assembly of the right-hand side and with round-trip dealiasing of the
Korteweg term, the 1D transform entry points, and the transform budget of
one step and one report (counts, so machine-independent)."""

import numpy as np
import pytest
import scipy.fft

from kortorus.functionals import evaluate_report
from kortorus.model import (
    ModelParams,
    inverse_density_capillarity,
    korteweg_div_general,
    korteweg_div_special,
    power_law_capillarity,
    rhs,
)
from kortorus.scenarios import density_corpus, initial_state
from kortorus.spectral import SpectralGrid, to_physical, to_spectral
from kortorus.timestepping import IntegratorConfig, Stepper, cfl_dt
from helpers import (
    korteweg_div_general_round_trip,
    korteweg_div_special_round_trip,
    measure,
    reference_rhs,
    rel_linf,
)

VARIANT_PARAMS = {
    "original": ModelParams(mu=1.0, alpha=0.3, kappa=0.5, a=1.0, gamma=1.4),
    "effective_v1": ModelParams(mu=1.0, alpha=0.5, kappa=0.5, a=1.0, gamma=2.0,
                                variant="effective_v1"),
    "effective_v2": ModelParams(mu=0.5, alpha=0.0, kappa=0.25, a=2.0, gamma=1.4,
                                variant="effective_v2"),
}


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


# The points a 2D 32^2 report transforms, in grid sizes: 4 forward scalars
# (sqrt(rho), |v|^2 and two powers of rho) and 14 inverse components of
# 32 x 17 coefficients.  Batching the report's transforms into few calls
# must not add to them.
REPORT_POINTS_2D = 4 + 14 * 17 / 32


@pytest.mark.parametrize("variant,resolution", [
    ("effective_v2", 64), ("original", 128), ("effective_v2", (32, 32)),
    ("original", (32, 32))])
def test_fft_budget_report(fft_count, variant, resolution):
    params = VARIANT_PARAMS[variant]
    config = IntegratorConfig(dt_initial=1e-4, dt_min=1e-9, t_end=1.0, scheme="imex_bdf2")
    state = smooth_state(resolution, 7)
    stepper = Stepper(state, params, config)
    stepper.advance(1e-4)
    stepper.advance(1e-4)
    report = measure(fft_count, lambda: evaluate_report(stepper.derived, params))
    assert report["calls"] <= 6
    if stepper.derived.grid.dim == 2:
        assert report["points"] <= REPORT_POINTS_2D * state.rho.data.size


@pytest.mark.parametrize("variant,resolution", [
    ("effective_v2", 64), ("original", 128), ("effective_v2", (32, 32)),
    ("original", (32, 32))])
def test_fft_budget_report_on_bare_state(fft_count, variant, resolution):
    # a bare state (as ``kortorus monitor`` reads it) sends rho, w and ln rho
    # forward in one call of dim + 2 <= 4 components: 11 calls became 9
    params = VARIANT_PARAMS[variant]
    state = smooth_state(resolution, 8)
    report = measure(fft_count, lambda: evaluate_report(state, params))
    assert report["calls"] <= 9


@pytest.mark.parametrize("lead", [(), (1,), (1, 1), (3,)])
def test_1d_transforms_match_rfftn_bit_for_bit(lead):
    grid = SpectralGrid(64)
    data = np.random.default_rng(8).standard_normal(lead + grid.shape)
    hat = to_spectral(data, grid)
    assert np.array_equal(hat, scipy.fft.rfftn(data, axes=(-1,)))
    assert np.array_equal(to_physical(hat, grid),
                          scipy.fft.irfftn(hat, s=grid.shape, axes=(-1,)))


@pytest.fixture(scope="module")
def density_corpora():
    return (density_corpus(SpectralGrid(256), 12, seed=1234, lo=1.0, hi=3.0)
            + density_corpus(SpectralGrid((128, 128)), 8, seed=1235, lo=1.0, hi=3.0))


def test_korteweg_special_matches_round_trip_dealiasing(density_corpora):
    for rho in density_corpora:
        assert rel_linf(korteweg_div_special(rho, 0.7).data,
                        korteweg_div_special_round_trip(rho, 0.7).data) < 1e-12


@pytest.mark.parametrize("law", [inverse_density_capillarity(0.7),
                                 power_law_capillarity(0.5, 1.5)], ids=lambda law: law.label)
def test_korteweg_general_matches_round_trip_dealiasing(density_corpora, law):
    for rho in density_corpora:
        assert rel_linf(korteweg_div_general(rho, law).data,
                        korteweg_div_general_round_trip(rho, law).data) < 1e-12
