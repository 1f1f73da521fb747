"""Reference step kernels: the tendencies and the split's two updates as
they read in the equations, each a plain numpy expression whose every sum
is a new array, and every integrating factor and weight computed on each
call.

``kortorus.model.tendency_hats`` and the Euler and BDF2 combinations of
``kortorus.timestepping`` form their sums in place, and the Stepper computes
the factors once per dt (and per previous dt for imex_bdf2); the tests hold
its kernels and runs equal to these, with ``==``.  The split is the
model's: the tendencies leave out the linear diffusions (kappa/mu) Lap rho
and mu Lap w, which act on every mode, and the 2/3 mask covers the rest;
the velocity's implicit part is mu Lap, its viscous term at its true rate
mu.
"""

from __future__ import annotations

import numpy as np

from kortorus.spectral import div_hat, grad_hat, to_physical_stage, to_spectral_stage


def reference_tendency_hats(d, forcing=()):
    """``model.tendency_hats`` of the SpectralState ``d`` (and the sources
    sampled in ``forcing``), through the same transform stages."""
    params, grid, rho = d.params, d.grid, d.rho.data
    keep = grid.rfft_dealias_keep
    original = params.variant == "original"
    flux_hat, *forcing_hats = d.fill(to_spectral_stage, "ln_rho_hat",
                                     extra=[rho * d.w.data, *forcing])
    d.fill(to_physical_stage, "grad_ln_rho", "grad_w", *(["hess_ln_rho"] if original else []))
    g = d.grad_ln_rho
    explicit = (-np.einsum("i...,ij...->j...", d.transport, d.grad_w)
                - params.a * params.gamma * rho ** (params.gamma - 1.0) * g)
    if original:
        explicit += np.einsum("i...,ij...->j...", g, params.alpha * np.swapaxes(d.grad_w, 0, 1)
                              + params.kappa * d.hess_ln_rho)
    (explicit_hat,) = d.fill(to_spectral_stage, extra=[explicit])
    if original:
        explicit_hat = explicit_hat + grad_hat(
            params.alpha * div_hat(d.w_hat, grid)
            + params.kappa * grid.rfft_minus_beta_sq * d.ln_rho_hat, grid)
    drho_hat, dw_hat = -div_hat(keep * flux_hat, grid), keep * explicit_hat
    if forcing_hats:
        drho_hat, dw_hat = drho_hat + forcing_hats[0], dw_hat + forcing_hats[1]
    return drho_hat, dw_hat


def reference_phi1(z: np.ndarray) -> np.ndarray:
    out = np.ones_like(z)
    nz = z != 0.0
    out[nz] = np.expm1(z[nz]) / z[nz]
    return out


def reference_euler(level, lam_rho, ksq, mu, dt):
    """Exponential Euler on the density, backward Euler on the velocity's
    mu Lap: (rho_hat, w_hat) one step of dt after ``level``."""
    z = -lam_rho * dt
    rho_hat = np.exp(z) * level.rho_hat + dt * reference_phi1(z) * level.n_rho_hat
    w_hat = (level.w_hat + dt * level.f_w_hat) / (1.0 + mu * ksq * dt)
    return rho_hat, w_hat


def reference_bdf2(level_n, level_p, lam_rho, ksq, mu, dt):
    """Variable-step BDF2 with extrapolated explicit terms, the density under
    its integrating factor: (rho_hat, w_hat) one step of dt after
    ``level_n``, which ``level_n.dt_prev`` after ``level_p``."""
    w_ratio = dt / level_n.dt_prev
    a0 = (1.0 + 2.0 * w_ratio) / (1.0 + w_ratio)
    a1 = -(1.0 + w_ratio)
    a2 = w_ratio ** 2 / (1.0 + w_ratio)
    c1 = 1.0 + w_ratio
    c2 = -w_ratio

    e1 = np.exp(-lam_rho * dt)
    e2 = np.exp(-lam_rho * (dt + level_n.dt_prev))
    rho_hat = (-a1 * e1 * level_n.rho_hat - a2 * e2 * level_p.rho_hat
               + dt * (c1 * e1 * level_n.n_rho_hat + c2 * e2 * level_p.n_rho_hat)) / a0
    w_hat = (-a1 * level_n.w_hat - a2 * level_p.w_hat
             + dt * (c1 * level_n.f_w_hat + c2 * level_p.f_w_hat)) / (a0 + mu * ksq * dt)
    return rho_hat, w_hat
