"""Reference step kernels: the split's two updates as they read in the
equations, computing every integrating factor and weight on each call.

``kortorus.timestepping`` computes those factors once per dt (and per
previous dt for imex_bdf2) and holds them on its Stepper; the tests hold its
kernels and runs equal to these, with ``==``.  The velocity's implicit part
is mu Lap, its viscous term at its true rate mu.
"""

from __future__ import annotations

import numpy as np


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

    r_hat = level.f_w_hat + mu * ksq * level.w_hat
    w_hat = (level.w_hat + dt * r_hat) / (1.0 + mu * ksq * dt)
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

    r_n = level_n.f_w_hat + mu * ksq * level_n.w_hat
    r_p = level_p.f_w_hat + mu * ksq * level_p.w_hat
    w_hat = (-a1 * level_n.w_hat - a2 * level_p.w_hat
             + dt * (c1 * r_n + c2 * r_p)) / (a0 + mu * ksq * dt)
    return rho_hat, w_hat
