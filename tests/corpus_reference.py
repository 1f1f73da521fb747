"""The seeded corpora built one field at a time: the reference that the
stacked corpora of ``scenarios`` must equal bit for bit.

Each trigonometric field draws its coefficient pairs and evaluates the cos
and sin of each of its modes on its own; each random-spectrum field makes
its own draw, weight table and inverse transform; each centred field of a
derivative sweep takes its own gradient round trip.  The rng of a corpus is
shared by its fields in order, so the next draw after a corpus is the next
draw after the stacked one.
"""

from __future__ import annotations

import math

import numpy as np

from kortorus.model import FieldState
from kortorus.spectral import TAU, ScalarField, VectorField, gradient


def random_trig_field(grid, rng, kmax=3, decay=0.7, normalize="max") -> np.ndarray:
    mesh = grid.meshgrid()
    theta = [TAU * m / L for m, L in zip(mesh, grid.length)]
    out = np.zeros(grid.shape)
    bound = 0.0
    if grid.dim == 1:
        for k in range(1, kmax + 1):
            amp = math.exp(-decay * k)
            c1, c2 = rng.normal(), rng.normal()
            out = out + amp * (c1 * np.cos(k * theta[0]) + c2 * np.sin(k * theta[0]))
            bound += amp * math.hypot(c1, c2)
    else:
        for kx in range(0, kmax + 1):
            for ky in range(-kmax, kmax + 1):
                if kx == 0 and ky <= 0:
                    continue
                amp = math.exp(-decay * math.hypot(kx, ky))
                phase = kx * theta[0] + ky * theta[1]
                c1, c2 = rng.normal(), rng.normal()
                out = out + amp * (c1 * np.cos(phase) + c2 * np.sin(phase))
                bound += amp * math.hypot(c1, c2)
    out -= out.mean()
    if normalize == "coeff":
        return out / bound if bound > 0 else out
    peak = np.max(np.abs(out))
    return out / peak if peak > 0 else out


def random_spectrum_field(grid, rng) -> np.ndarray:
    kmax = min(grid.resolution) // 3
    coeffs = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    keep = np.ones(grid.shape, dtype=bool)
    for axis, n in enumerate(grid.resolution):
        k = np.abs(np.fft.fftfreq(n, d=1.0 / n))
        shape = [1] * grid.dim
        shape[axis] = n
        keep &= (k <= kmax).reshape(shape)
    mag = grid.beta_magnitude.copy()
    mag[mag == 0.0] = 1.0
    coeffs *= keep * mag ** (-1.5)
    data = np.fft.ifftn(coeffs).real
    data -= data.mean()
    peak = np.max(np.abs(data))
    return data / peak if peak > 0 else data


def density_corpus(grid, count, rng, lo=1.0, hi=3.0) -> list[ScalarField]:
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return [ScalarField(grid, mid + 0.98 * half
                        * random_trig_field(grid, rng, normalize="coeff"))
            for _ in range(count)]


def velocity_corpus(grid, count, rng, amplitude=0.5, kmax=3) -> list[VectorField]:
    return [VectorField(grid, np.stack([amplitude * random_trig_field(grid, rng, kmax=kmax)
                                        for _ in range(grid.dim)]))
            for _ in range(count)]


def besov_corpus(grid, count, rng) -> list[ScalarField]:
    return [ScalarField(grid, random_spectrum_field(grid, rng)) for _ in range(count)]


def random_smooth(grid, rng, mean, amplitude, kmax, decay, vel, vel_kmax) -> FieldState:
    rho = mean + amplitude * random_trig_field(grid, rng, kmax=kmax, decay=decay)
    comps = [vel * random_trig_field(grid, rng, kmax=vel_kmax, decay=decay)
             for _ in range(grid.dim)]
    return FieldState(ScalarField(grid, rho), VectorField(grid, np.stack(comps)))


def centred_gradients(corpus) -> list[VectorField]:
    """The gradient of each field's mean-free part, one round trip a field."""
    return [gradient(ScalarField(u.grid, u.data - np.mean(u.data))) for u in corpus]
