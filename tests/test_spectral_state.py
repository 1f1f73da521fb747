"""The spectral-state core: agreement with an independent complex-FFT
assembly of the right-hand side (and convergence to its conservative form
under refinement), and with round-trip dealiasing of the
Korteweg term, the 1D transform entry points, the transform budget of one
step and one report (counts, so machine-independent), and bit-identity of
the staged transforms with one call per field."""

import numpy as np
import pytest
import scipy.fft

from kortorus import spectral
from kortorus.functionals import MonitorSpec, evaluate_report
from kortorus.model import (
    ModelParams,
    SpectralState,
    inverse_density_capillarity,
    korteweg_div_general,
    korteweg_div_special,
    power_law_capillarity,
    rhs,
    tendency_hats,
)
from kortorus.scenarios import density_corpus, initial_state
from kortorus.spectral import (
    SpectralGrid,
    VectorField,
    integrate,
    lp_norm,
    to_physical,
    to_physical_stage,
    to_spectral,
    to_spectral_stage,
)
from kortorus.timestepping import IntegratorConfig, Stepper, cfl_dt
from helpers import (
    korteweg_div_general_round_trip,
    korteweg_div_special_round_trip,
    measure,
    reference_rhs,
    reference_rhs_per_unit_mass,
    rel_linf,
)
from report_reference import public_columns, reference_report

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
    ref_rho, ref_w = reference_rhs_per_unit_mass(state.rho.data, state.w.data, state.grid,
                                                 params)
    assert rel_linf(drho.data, ref_rho) < 1e-12
    assert rel_linf(dw.data, ref_w) < 1e-12


@pytest.mark.parametrize("variant,coarse,fine", [
    ("effective_v1", (32, 32), (64, 64)), ("effective_v2", (32, 32), (64, 64)),
    ("original", (32, 32), (64, 64)), ("original", 64, 128)])
def test_rhs_converges_to_conservative_reference(variant, coarse, fine):
    # the conservative form truncates rho T before dividing it by rho again;
    # on a smooth state its gap to rhs is truncation error, which one
    # doubling cuts by far more than 100x (2e-7 -> 2e-14, 1.3e-4 -> 8e-8
    # and 6e-9 -> 1e-13 for the cases here)
    params = VARIANT_PARAMS[variant]
    gaps = []
    for resolution in (coarse, fine):
        state = smooth_state(resolution, 4)
        _, dw = rhs(state, params)
        _, ref_w = reference_rhs(state.rho.data, state.w.data, state.grid, params)
        gaps.append(rel_linf(dw.data, ref_w))
    assert gaps[1] < gaps[0] / 100


def stepped(variant, resolution, seed, forcing=None, dt=1e-4):
    """A Stepper for VARIANT_PARAMS[variant] after two steps (the second one
    BDF2), and its config."""
    params = VARIANT_PARAMS[variant]
    config = IntegratorConfig(dt_initial=dt, dt_min=1e-9, t_end=1.0, scheme="imex_bdf2")
    stepper = Stepper(smooth_state(resolution, seed), params, config, forcing)
    stepper.advance(dt)
    stepper.advance(dt)
    return stepper, config


def sine_forcing(grid):
    x = grid.meshgrid()[0]
    return lambda t: (0.1 * np.sin(x + t), np.stack([0.2 * np.cos(x - t)] * grid.dim))


def test_fft_budget_2d_effective_bdf2_step_and_report(fft_count):
    # the 2D stages make the calls they made before the 1D batching: one per
    # group, none wider than 4 components
    stepper, config = stepped("effective_v2", (32, 32), 5, dt=1e-3)
    params = stepper.params

    def one_step():  # as in timestepping.run: step-size bound, then the step
        stepper.advance(min(1e-3, cfl_dt(stepper.derived, params, config)))
    step = measure(fft_count, one_step)
    report = measure(fft_count, lambda: evaluate_report(stepper.derived, params))
    size = stepper.state.rho.data.size
    # rho and w back; ln rho and rho w forward; grad ln rho and grad w back;
    # the tendency forward
    assert step["calls"] == 7 and step["points"] <= 24 * size
    assert report["calls"] == 4 and report["points"] <= REPORT_POINTS_2D * size
    assert step["widest_2d"] == report["widest_2d"] == 4


def step_budget(fft_count, variant, forced):
    """Calls and points of one 1D step after the first two, forced or not."""
    grid = SpectralGrid(128)
    stepper, config = stepped(variant, 128, 6, sine_forcing(grid) if forced else None)
    return measure(fft_count, lambda: stepper.advance(
        min(1e-4, cfl_dt(stepper.derived, stepper.params, config))))


def test_fft_budget_1d_original_step(fft_count):
    # rho and w back; ln rho, rho w and the forcing forward; grad ln rho,
    # grad w and grad grad ln rho back; the tendency forward.  The forcing
    # adds no call.
    for forced in (False, True):
        step = step_budget(fft_count, "original", forced)
        assert step["calls"] == 4 and step["points"] <= 24 * 128


@pytest.mark.parametrize("variant", ["effective_v1", "effective_v2"])
def test_fft_budget_1d_effective_step(fft_count, variant):
    # rho and w back; ln rho, rho w and the forcing forward; grad ln rho and
    # grad w back; the tendency forward
    for forced in (False, True):
        step = step_budget(fft_count, variant, forced)
        assert step["calls"] == 4 and step["points"] <= 24 * 128


# The points a 2D 32^2 report transforms, in grid sizes: 3 forward scalars
# (sqrt(rho) and two powers of rho) and 12 inverse components of 32 x 17
# coefficients, 4 of them grad grad ln rho, which an original step brings
# back.  Batching the report's transforms into few calls must not add to
# them.
REPORT_POINTS_2D = 3 + 12 * 17 / 32
HESSIAN_POINTS_2D = 4 * 17 / 32


@pytest.mark.parametrize("variant,resolution", [
    ("effective_v2", 64), ("original", 128), ("effective_v2", (32, 32)),
    ("original", (32, 32))])
def test_fft_budget_report(fft_count, variant, resolution):
    stepper, _ = stepped(variant, resolution, 7)
    report = measure(fft_count, lambda: evaluate_report(stepper.derived, stepper.params))
    if stepper.derived.grid.dim == 1:
        assert report["calls"] <= 2
    else:
        # an original step brings grad grad ln rho back, and its report
        # takes it from there
        original = variant == "original"
        assert report["calls"] == (3 if original else 4)
        assert report["widest_2d"] <= 4
        assert report["points"] <= (REPORT_POINTS_2D - original * HESSIAN_POINTS_2D) \
            * stepper.state.rho.data.size


@pytest.mark.parametrize("variant,resolution", [
    ("effective_v2", 64), ("original", 128), ("effective_v2", (32, 32)),
    ("original", (32, 32))])
def test_fft_budget_report_on_bare_state(fft_count, variant, resolution):
    # a bare state (as ``kortorus monitor`` reads it) sends rho, w and ln rho
    # forward in one call of dim + 2 <= 4 components: 11 calls became 9, and
    # 7 once the report sent |v|^2 forward no more
    params = VARIANT_PARAMS[variant]
    state = smooth_state(resolution, 8)
    report = measure(fft_count, lambda: evaluate_report(state, params))
    assert report["calls"] <= (4 if state.grid.dim == 1 else 7)
    assert report["widest_2d"] <= 4


def unbatched(monkeypatch):
    """Make every transform stage call once per array, as before the 1D
    batching."""
    monkeypatch.setattr(spectral, "_stage", lambda transform, arrays, grid: [
        transform(a, grid) for a in arrays])


@pytest.mark.parametrize("variant", sorted(VARIANT_PARAMS))
@pytest.mark.parametrize("resolution", [64, (32, 32)])
def test_staged_report_equals_each_functional(variant, resolution):
    # alpha > 0 in original and effective_v1, so the symmetric-gradient rate counts
    stepper, _ = stepped(variant, resolution, 9)
    d, params, spec = stepper.derived, stepper.params, MonitorSpec()
    rep = evaluate_report(d, params, spec)
    expected = reference_report(d, params, spec)
    assert {k: getattr(rep, k) for k in expected} == expected
    public = public_columns(SpectralState(d.state, params, d.rho_hat, d.w_hat), params, spec)
    assert public == {k: expected[k] for k in public}
    serrin_p, serrin_q = spec.serrin_pair(d.grid.dim)
    assert rep.serrin_integrand == lp_norm(VectorField(d.grid, d.v), serrin_q) ** serrin_p
    assert rep.mass == integrate(d.rho)


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
@pytest.mark.parametrize("variant", sorted(VARIANT_PARAMS))
@pytest.mark.parametrize("resolution", [64, (32, 32)])
def test_staged_tendencies_equal_unbatched(monkeypatch, variant, resolution, forced):
    # the newest level's tendencies come from the step's own stages
    forcing = sine_forcing(SpectralGrid(resolution)) if forced else None
    stepper, _ = stepped(variant, resolution, 10, forcing)
    d, level = stepper.derived, stepper.run_state.levels[-1]
    unbatched(monkeypatch)
    fresh = SpectralState(d.state, stepper.params, d.rho_hat, d.w_hat)
    for name in ("ln_rho_hat", "grad_w", "grad_ln_rho", "hess_ln_rho"):
        getattr(fresh, name)  # field by field
    reference = tendency_hats(fresh)
    if forced:
        reference = tuple(r + to_spectral(f, d.grid) for r, f in zip(reference, forcing(d.time)))
    assert np.array_equal(level.n_rho_hat, reference[0])
    assert np.array_equal(level.f_w_hat, reference[1])


@pytest.mark.parametrize("lead", [(), (1,), (1, 1), (3,)])
def test_1d_transforms_match_rfftn_bit_for_bit(lead):
    grid = SpectralGrid(64)
    data = np.random.default_rng(8).standard_normal(lead + grid.shape)
    hat = to_spectral(data, grid)
    assert np.array_equal(hat, scipy.fft.rfftn(data, axes=(-1,)))
    assert np.array_equal(to_physical(hat, grid),
                          scipy.fft.irfftn(hat, s=grid.shape, axes=(-1,)))


@pytest.mark.parametrize("resolution", [64, (16, 16)])
def test_stages_match_single_transforms_bit_for_bit(resolution):
    grid = SpectralGrid(resolution)
    rng = np.random.default_rng(11)
    arrays = [rng.standard_normal(lead + grid.shape) for lead in [(), (1,), (2, 1), (3,)]]
    hats = list(to_spectral_stage(arrays, grid))
    assert len(hats) == len(arrays)
    assert all(np.array_equal(h, to_spectral(a, grid)) for h, a in zip(hats, arrays))
    back = list(to_physical_stage(hats, grid))
    assert len(back) == len(hats)
    assert all(np.array_equal(b, to_physical(h, grid)) for b, h in zip(back, hats))


def test_2d_stage_takes_each_input_when_its_output_is_asked_for():
    grid = SpectralGrid((16, 16))
    rng = np.random.default_rng(12)
    arrays = [rng.standard_normal(grid.shape) for _ in range(3)]
    taken = []

    def inputs():
        for a in arrays:
            taken.append(a)
            yield a

    stage = to_spectral_stage(inputs(), grid)
    assert taken == []
    for count, (hat, a) in enumerate(zip(stage, arrays), start=1):
        assert len(taken) == count
        assert np.array_equal(hat, to_spectral(a, grid))


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
