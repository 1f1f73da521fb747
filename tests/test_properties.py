"""Property tests for the structural invariants that hold at roundoff for
arbitrary admissible inputs (not just the worked examples)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kortorus.model import (
    FieldState,
    ModelParams,
    effective_velocity,
    recover_u,
    rhs,
)
from kortorus.littlewood_paley import dyadic_block, family_for
from kortorus.scenarios import besov_corpus, random_trig_field
from kortorus.spectral import SpectralGrid, VectorField, dealias, integrate
from helpers import max_abs

VARIANT_PARAMS = {
    "original": ModelParams(1.0, 0.4, 0.8, 1.0, 2.0, "original"),
    "effective_v1": ModelParams(1.0, 0.5, 0.5, 1.0, 2.0, "effective_v1"),
    "effective_v2": ModelParams(1.0, 0.0, 1.0, 1.0, 2.0, "effective_v2"),
}


def random_state(grid, seed, rho_amp=0.3, vel_amp=0.5):
    rng = np.random.default_rng(seed)
    rho = grid.scalar(1.5 + rho_amp * random_trig_field(grid, rng, kmax=3))
    comps = [vel_amp * random_trig_field(grid, rng, kmax=3)
             for _ in range(grid.dim)]
    return FieldState(rho, VectorField(grid, np.stack(comps)))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       eps=st.floats(0.05, 0.95))
def test_velocity_change_of_variables_round_trip(seed, eps):
    grid = SpectralGrid(32)
    params = ModelParams(mu=1.0, alpha=eps, kappa=eps, a=1.0, gamma=2.0,
                         variant="effective_v1")
    state = random_state(grid, seed)
    back = recover_u(state.rho, effective_velocity(state.rho, state.w, params), params)
    assert max_abs(back.data - state.w.data) < 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       variant=st.sampled_from(sorted(VARIANT_PARAMS)))
def test_density_tendency_has_zero_mean(seed, variant):
    grid = SpectralGrid(32)
    state = random_state(grid, seed)
    drho, _ = rhs(state, VARIANT_PARAMS[variant])
    assert abs(integrate(drho)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       res_exp=st.integers(4, 7))
def test_dealias_is_idempotent(seed, res_exp):
    grid = SpectralGrid(2 ** res_exp)
    rng = np.random.default_rng(seed)
    f = grid.scalar(rng.normal(size=grid.shape))
    once = dealias(f)
    twice = dealias(once)
    assert max_abs(twice.data - once.data) < 1e-13 * max(1.0, max_abs(once.data))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       res_exp=st.integers(4, 7))
def test_dyadic_reconstruction_across_resolutions(seed, res_exp):
    grid = SpectralGrid(2 ** res_exp)
    fam = family_for(grid)
    u = besov_corpus(grid, 1, seed=seed)[0]
    total = np.zeros(grid.shape)
    for q in fam.block_range:
        total += dyadic_block(u, q).data
    assert max_abs(total - u.data) < 1e-12
