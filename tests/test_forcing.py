"""Manufactured solutions: the numpy jets, the profiles and the forcing
evaluate the symbolic expressions of ``manufactured_reference``."""

import numpy as np
import pytest
import sympy as sp

from kortorus.errors import VariantMismatch
from kortorus.model import ModelParams
from kortorus.scenarios import manufactured_solution
from kortorus.spectral import SpectralGrid
from helpers import rel_linf
from manufactured_reference import SOLUTIONS, T

TIMES = (0.0, 0.13, 0.4)
GRIDS = [("ms1d", 64), ("ms2d", (32, 32))]


@pytest.mark.parametrize("sid,resolution,params", [
    ("ms1d", 64, ModelParams(mu=1.0, alpha=0.0, kappa=1.0, a=1.0, gamma=2.0,
                             variant="effective_v2")),
    ("ms2d", (32, 32), ModelParams(mu=0.5, alpha=0.0, kappa=0.25, a=2.0, gamma=1.4,
                                   variant="effective_v2")),
])
def test_compiled_forcing_matches_plain_lambdify(sid, resolution, params):
    ref = SOLUTIONS[sid]
    grid = SpectralGrid(resolution)
    mesh = grid.meshgrid()
    f_rho, f_v = ref.forcing_exprs(params.mu, params.kappa, params.a, params.gamma)
    plain = [ref.lambdify(e) for e in (f_rho, *f_v)]
    compiled = manufactured_solution(sid).forcing(grid, params)
    for t in TIMES:
        got_rho, got_v = compiled(t)
        want = [np.broadcast_to(fn(t, *mesh), grid.shape) for fn in plain]
        assert rel_linf(got_rho, want[0]) < 1e-13
        for j in range(grid.dim):
            assert rel_linf(got_v[j], want[1 + j]) < 1e-13


@pytest.mark.parametrize("sid,resolution", GRIDS)
def test_profile_matches_plain_lambdify(sid, resolution):
    ms, ref = manufactured_solution(sid), SOLUTIONS[sid]
    grid = SpectralGrid(resolution)
    mesh = grid.meshgrid()
    plain = [ref.lambdify(e) for e in (ref.rho_expr, *ref.v_exprs)]
    for t in TIMES:
        state = ms.state(grid, t)
        want = [np.broadcast_to(fn(t, *mesh), grid.shape) for fn in plain]
        assert np.array_equal(state.rho.data, want[0])
        for j in range(grid.dim):
            assert np.array_equal(state.w.data[j], want[1 + j])


@pytest.mark.parametrize("sid,resolution", GRIDS)
def test_jets_match_symbolic_derivatives(sid, resolution):
    ms, ref = manufactured_solution(sid), SOLUTIONS[sid]
    grid = SpectralGrid(resolution)
    mesh = grid.meshgrid()
    for t in TIMES:
        jets = ms.jets(t, *mesh)
        assert len(jets) == 1 + grid.dim
        for jet, expr in zip(jets, (ref.rho_expr, *ref.v_exprs)):
            pairs = [(jet.value, expr), (jet.d_t, sp.diff(expr, T))]
            pairs += [(got, sp.diff(expr, c)) for got, c in zip(jet.grad, ref.coords)]
            pairs += [(got, sp.diff(expr, c, 2)) for got, c in zip(jet.second, ref.coords)]
            assert len(pairs) == 2 + 2 * grid.dim
            for got, derivative in pairs:
                want = np.broadcast_to(ref.lambdify(derivative)(t, *mesh), grid.shape)
                assert rel_linf(got, want) < 1e-13, (sid, t, derivative)


@pytest.mark.parametrize("sid,resolution", GRIDS)
def test_forcing_of_the_original_variant_is_refused(sid, resolution):
    # the forcing is derived for the effective system, not for ``original``
    params = ModelParams(mu=1.0, alpha=0.0, kappa=1.0, a=1.0, gamma=2.0)
    with pytest.raises(VariantMismatch, match="model.variant must be effective_v1 or "
                                              "effective_v2, got 'original'"):
        manufactured_solution(sid).forcing(SpectralGrid(resolution), params)
