"""Manufactured solutions: the compiled profile and forcing callables evaluate
their symbolic expressions."""

import numpy as np
import pytest
import sympy as sp

from kortorus.model import ModelParams
from kortorus.scenarios import manufactured_solution
from kortorus.spectral import SpectralGrid
from helpers import rel_linf


@pytest.mark.parametrize("sid,resolution,params", [
    ("ms1d", 64, ModelParams(mu=1.0, alpha=0.0, kappa=1.0, a=1.0, gamma=2.0,
                             variant="effective_v2")),
    ("ms2d", (32, 32), ModelParams(mu=0.5, alpha=0.0, kappa=0.25, a=2.0, gamma=1.4,
                                   variant="effective_v2")),
])
def test_compiled_forcing_matches_plain_lambdify(sid, resolution, params):
    ms = manufactured_solution(sid)
    grid = SpectralGrid(resolution)
    mesh = grid.meshgrid()
    f_rho, f_v = ms.forcing_exprs(params.mu, params.kappa, params.a, params.gamma)
    args = (sp.Symbol("t"), *sp.symbols("x y")[: grid.dim])
    plain = [sp.lambdify(args, e, modules="numpy") for e in (f_rho, *f_v)]
    compiled = ms.forcing(grid, params)
    for t in (0.0, 0.13, 0.4):
        got_rho, got_v = compiled(t)
        want = [np.broadcast_to(fn(t, *mesh), grid.shape) for fn in plain]
        assert rel_linf(got_rho, want[0]) < 1e-13
        for j in range(grid.dim):
            assert rel_linf(got_v[j], want[1 + j]) < 1e-13


@pytest.mark.parametrize("sid,resolution", [("ms1d", 64), ("ms2d", (32, 32))])
def test_profile_compiled_once_and_matches_plain_lambdify(sid, resolution, monkeypatch):
    ms = manufactured_solution(sid)
    grid = SpectralGrid(resolution)
    mesh = grid.meshgrid()
    args = (sp.Symbol("t"), *sp.symbols("x y")[: grid.dim])
    plain = [sp.lambdify(args, e, modules="numpy") for e in (ms.rho_expr, *ms.v_exprs)]
    ms.state(grid, 0.0)
    compiles = []
    monkeypatch.setattr(sp, "lambdify", lambda *a, **k: compiles.append(a))
    for t in (0.0, 0.13, 0.4):
        state = ms.state(grid, t)
        want = [np.broadcast_to(fn(t, *mesh), grid.shape) for fn in plain]
        assert np.array_equal(state.rho.data, want[0])
        for j in range(grid.dim):
            assert np.array_equal(state.w.data[j], want[1 + j])
    assert compiles == []
