"""Initial-condition families, seeded field corpora, and manufactured solutions.

Families (all analytic, so spectral residuals decay exponentially):

* ``equilibrium``     constant density, zero velocity.
* ``single_mode``     mean + amplitude * prod_i cos(k x_i); optional velocity
                      mode of the same wavenumber.
* ``gaussian_bump``   periodic bump exp(sum_i (cos th_i - 1)/width^2) carved
                      out of (or added to) the mean; ``velocity_amplitude``
                      adds the outflow field w_j = A sin(th_j), which deepens
                      the dip and drives vacuum-squeeze scenarios.
* ``random_smooth``   seeded trigonometric polynomial with exponentially
                      decaying coefficients.
* ``manufactured``    registry entry evaluated at t = 0.

Manufactured solutions are closed-form numpy *jets* of their density and
velocity profiles: each profile's value, time derivative, gradient and pure
second derivatives.  One function, ``_effective_forcing``, assembles from
them the forcing that makes the profiles an exact solution of the
effective-velocity system.  ``tests/manufactured_reference.py`` derives the
same quantities with sympy and is the tests' oracle for both.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import VariantMismatch, require
from .model import FieldState, ModelParams
from .spectral import TAU, ScalarField, SpectralGrid, VectorField


# ---------------------------------------------------------------------------
# random trigonometric fields


def random_trig_fields(grid: SpectralGrid, rng: np.random.Generator, count: int,
                       kmax: int = 3, decay: float = 0.7,
                       normalize: str = "max") -> np.ndarray:
    """``count`` zero-mean random trigonometric polynomials on one grid,
    stacked on a leading axis, each with sup norm <= 1.

    Coefficients of integer mode k carry weight exp(-decay |k|); downstream
    compositions (log, powers) then have spectra decaying fast enough for the
    identity suites' resolution-doubling checks.  ``normalize="max"`` scales
    by the grid maximum; ``"coeff"`` scales by the coefficient-sum bound,
    which is grid-independent, so the same seed yields samples of the *same*
    function on grids of different resolution.

    Draw order: the coefficient pairs (c1, c2) are drawn from ``rng`` before
    any sampling, field by field and, within a field, mode by mode: the
    modes of the half lattice, k_1 = 0..kmax and each later component
    -kmax..kmax in lexicographic order, whose first nonzero component is
    positive (one representative per conjugate pair; k = 1..kmax in 1D).
    Then each mode's phase, the sum over axes of k_i theta_i, and its cos
    and sin are evaluated once on the grid and added to every field.  So
    the stack, and the state ``rng`` is left in, are those of ``count``
    one-field calls in a row.
    """
    mesh = grid.meshgrid()
    theta = [TAU * m / L for m, L in zip(mesh, grid.length)]
    modes = [mode for mode in itertools.product(range(kmax + 1),
                                                *[range(-kmax, kmax + 1)] * (grid.dim - 1))
             if next((k for k in mode if k), 0) > 0]
    amps = [math.exp(-decay * math.hypot(*mode)) for mode in modes]
    coeffs = rng.normal(size=(count, len(modes), 2))
    column = (count,) + (1,) * grid.dim
    out = np.zeros((count,) + grid.shape)
    for mode, amp, (c1, c2) in zip(modes, amps, coeffs.transpose(1, 2, 0)):
        phase = sum(k * angle for k, angle in zip(mode, theta))
        # amp * (c1 cos + c2 sin), in place to hold two stacks of temporaries
        term = c1.reshape(column) * np.cos(phase)
        term += c2.reshape(column) * np.sin(phase)
        term *= amp
        out += term
    for row, pairs in zip(out, coeffs.tolist()):
        row -= row.mean()
        if normalize == "coeff":
            scale = 0.0
            for amp, (c1, c2) in zip(amps, pairs):
                scale += amp * math.hypot(c1, c2)
        else:
            scale = np.max(np.abs(row))
        if scale > 0:
            row /= scale
    return out


def random_trig_field(grid: SpectralGrid, rng: np.random.Generator,
                      kmax: int = 3, decay: float = 0.7,
                      normalize: str = "max") -> np.ndarray:
    """One ``random_trig_fields`` sample: a zero-mean random trigonometric
    polynomial with sup norm <= 1, drawn from ``rng`` in the same order."""
    return random_trig_fields(grid, rng, 1, kmax, decay, normalize)[0]


def random_spectrum_fields(grid: SpectralGrid, rng: np.random.Generator,
                           count: int) -> np.ndarray:
    """``count`` mean-free random fields with power-law modulus spectrum
    |k|^{-3/2}, band-limited to |k|_inf <= min(resolution) // 3 (the 2/3
    cutoff), each scaled to sup norm 1, stacked on a leading axis.

    Draw order: one standard-normal draw of shape (count, 2) + grid.shape,
    so field by field the real parts of the coefficients, then their
    imaginary parts.  The weight table is made once, and the stack goes
    through one inverse transform over the grid axes."""
    kmax = min(grid.resolution) // 3
    keep = np.ones(grid.shape, dtype=bool)
    for axis, n in enumerate(grid.resolution):
        k = np.abs(np.fft.fftfreq(n, d=1.0 / n))
        shape = [1] * grid.dim
        shape[axis] = n
        keep &= (k <= kmax).reshape(shape)
    mag = grid.beta_magnitude.copy()
    mag[mag == 0.0] = 1.0
    draws = rng.standard_normal((count, 2) + grid.shape)
    # real + 1j * imaginary, summed in place (addition commutes bit for bit)
    coeffs = 1j * draws[:, 1]
    coeffs += draws[:, 0]
    del draws
    coeffs *= keep * mag ** (-1.5)
    samples = np.fft.ifftn(coeffs, axes=tuple(range(1, grid.dim + 1))).real
    del coeffs
    out = np.empty((count,) + grid.shape)
    for row, data in zip(out, samples):
        data -= data.mean()
        peak = np.max(np.abs(data))
        np.divide(data, peak if peak > 0 else 1.0, out=row)
    return out


def density_corpus(grid: SpectralGrid, count: int, seed: int,
                   lo: float = 1.0, hi: float = 3.0) -> list[ScalarField]:
    """Seeded smooth densities with range inside [lo, hi]: ``count``
    coefficient-normalized ``random_trig_fields`` from one rng."""
    rng = np.random.default_rng(seed)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    perts = random_trig_fields(grid, rng, count, normalize="coeff")
    return [ScalarField(grid, mid + 0.98 * half * pert) for pert in perts]


def velocity_corpus(grid: SpectralGrid, count: int, seed: int,
                    amplitude: float = 0.5, kmax: int = 3) -> list[VectorField]:
    """Seeded smooth velocities: ``count * dim`` ``random_trig_fields`` from
    one rng, field by field and component by component."""
    rng = np.random.default_rng(seed)
    comps = random_trig_fields(grid, rng, count * grid.dim, kmax=kmax)
    return [VectorField(grid, amplitude * comps[i: i + grid.dim])
            for i in range(0, len(comps), grid.dim)]


def besov_corpus(grid: SpectralGrid, count: int, seed: int) -> list[ScalarField]:
    """Seeded ``random_spectrum_fields`` samples, which have content in every
    dyadic shell, for the norm sweeps: ``count`` of them from one rng."""
    rng = np.random.default_rng(seed)
    return [ScalarField(grid, data) for data in random_spectrum_fields(grid, rng, count)]


# ---------------------------------------------------------------------------
# initial-condition families


FAMILIES = ("equilibrium", "single_mode", "gaussian_bump", "random_smooth",
            "manufactured")


def _angles(grid: SpectralGrid, center=None) -> list[np.ndarray]:
    mesh = grid.meshgrid()
    cs = center or [0.5] * grid.dim
    return [TAU * (m / L - c) for m, L, c in zip(mesh, grid.length, cs)]


def initial_state(grid: SpectralGrid, family: str, fam_params: dict | None = None,
                  seed: int | None = None) -> FieldState:
    """Build the t = 0 state of a named family."""
    p = dict(fam_params or {})
    if family == "equilibrium":
        mean = float(p.pop("mean", 1.0))
        _reject_unknown(family, p)
        return FieldState(grid.constant(mean), grid.zero_vector())

    if family == "single_mode":
        mean = float(p.pop("mean", 1.0))
        amplitude = float(p.pop("amplitude", 0.1))
        k = int(p.pop("wavenumber", 1))
        vel = float(p.pop("velocity_amplitude", 0.0))
        _reject_unknown(family, p)
        theta = _angles(grid, center=[0.0] * grid.dim)
        rho = mean + amplitude * np.prod([np.cos(k * th) for th in theta], axis=0)
        w = np.zeros((grid.dim,) + grid.shape)
        for j in range(grid.dim):
            comp = vel * np.sin(k * theta[j])
            for i in range(grid.dim):
                if i != j:
                    comp = comp * np.cos(k * theta[i])
            w[j] = comp
        return FieldState(ScalarField(grid, rho), VectorField(grid, w))

    if family == "gaussian_bump":
        mean = float(p.pop("mean", 1.0))
        depth = float(p.pop("depth", 0.5))
        width = float(p.pop("width", 0.5))
        center = p.pop("center", None)
        vel = float(p.pop("velocity_amplitude", 0.0))
        _reject_unknown(family, p)
        theta = _angles(grid, center)
        bump = np.exp(sum((np.cos(th) - 1.0) for th in theta) / width ** 2)
        rho = mean - depth * bump
        w = np.stack([vel * np.sin(th) for th in theta])
        return FieldState(ScalarField(grid, rho), VectorField(grid, w))

    if family == "random_smooth":
        mean = float(p.pop("mean", 1.0))
        amplitude = float(p.pop("amplitude", 0.2))
        kmax = int(p.pop("modes", 3))
        decay = float(p.pop("decay", 0.7))
        vel = float(p.pop("velocity_amplitude", 0.0))
        vel_kmax = int(p.pop("velocity_modes", kmax))
        _reject_unknown(family, p)
        rng = np.random.default_rng(0 if seed is None else seed)
        pert = random_trig_field(grid, rng, kmax=kmax, decay=decay)
        comps = random_trig_fields(grid, rng, grid.dim, kmax=vel_kmax, decay=decay)
        return FieldState(ScalarField(grid, mean + amplitude * pert),
                          VectorField(grid, vel * comps))

    if family == "manufactured":
        sid = p.pop("id", "ms1d")
        _reject_unknown(family, p)
        return manufactured_solution(sid).state(grid, 0.0)

    raise ValueError(f"unknown initial-condition family {family!r}, "
                     f"expected one of {FAMILIES}")


def _reject_unknown(family: str, leftover: dict):
    if leftover:
        raise ValueError(f"unknown parameters for family {family!r}: "
                         f"{sorted(leftover)}")


# ---------------------------------------------------------------------------
# manufactured solutions


class Jet(NamedTuple):
    """Samples of one profile and of its derivatives: the value, the time
    derivative, the gradient and the pure second derivatives d_ii."""

    value: np.ndarray
    d_t: np.ndarray
    grad: tuple[np.ndarray, ...]
    second: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class ManufacturedSolution:
    """Closed-form exact solution (rho, v) of the effective-velocity system,
    under the forcing that ``_effective_forcing`` assembles from its jets.
    ``jets(t, *coords)`` returns the jets of rho and of each v_j."""

    sid: str
    dim: int
    jets: Callable[..., tuple[Jet, ...]]

    def state(self, grid: SpectralGrid, time: float) -> FieldState:
        if grid.dim != self.dim:
            raise ValueError(f"solution {self.sid!r} is {self.dim}-dimensional")
        rho, *v = self.jets(time, *grid.meshgrid())
        return FieldState(ScalarField(grid, rho.value),
                          VectorField(grid, np.stack([vj.value for vj in v])),
                          time=max(time, 0.0))

    def forcing(self, grid: SpectralGrid, params: ModelParams):
        """Numeric forcing callable t -> (f_rho, f_v samples) of the effective
        system; ``original`` parameters raise VariantMismatch."""
        require((params.variant != "original", f"manufactured solution {self.sid!r} is exact "
                 "for the effective system only; model.variant must be effective_v1 or "
                 "effective_v2, got 'original'"), error=VariantMismatch)
        mesh = grid.meshgrid()

        def apply(time: float):
            rho, *v = self.jets(time, *mesh)
            return _effective_forcing(rho, v, params)

        return apply


def _effective_forcing(rho: Jet, v: list[Jet],
                       params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(f_rho, f_v) making the profiles of the jets an exact solution of

        d_t rho + div(rho v) - (kappa/mu) Lap rho = f_rho,
        d_t v + (u . grad) v - (div(mu rho grad v) - grad(a rho^gamma))/rho = f_v,

    with u = v - (kappa/mu) grad ln rho."""
    eps = params.kappa / params.mu
    u = [vi.value - eps * rho_i / rho.value for vi, rho_i in zip(v, rho.grad)]
    f_rho = rho.d_t - eps * sum(rho.second)
    for i, vi in enumerate(v):
        f_rho += rho.grad[i] * vi.value + rho.value * vi.grad[i]
    # d(a rho^gamma)/d rho
    pressure = params.a * params.gamma * rho.value ** (params.gamma - 1.0)
    f_v = np.empty((len(v),) + rho.value.shape)
    for j, vj in enumerate(v):
        advect = sum(ui * vj_i for ui, vj_i in zip(u, vj.grad))
        diffusion = params.mu * sum(rho_i * vj_i + rho.value * vj_ii for rho_i, vj_i, vj_ii
                                    in zip(rho.grad, vj.grad, vj.second))
        f_v[j] = vj.d_t + advect - (diffusion - pressure * rho.grad[j]) / rho.value
    return f_rho, f_v


# The value of each profile is evaluated in the operations, and their order,
# of sympy's printing of its expression (tests/manufactured_reference.py), so
# a state is the same to the bit as one sampled from that expression.

def _ms1d(t, x) -> tuple[Jet, ...]:
    """rho = 6/5 + 7/20 exp(4/5 sin(x - 3t/5) - 4/5),
    v = 3/10 exp(1/2 cos(x - 9t/10) - 1/2) sin x."""
    # s = -sin(x - 3t/5), c = cos(x - 3t/5)
    phase = (3/5)*t - x
    s, c = np.sin(phase), np.cos(phase)
    e = np.exp(-4/5*s - 4/5)
    rho_x = (7/25) * e * c
    rho = Jet((7/20)*e + 6/5, -(3/5) * rho_x, (rho_x,),
              ((7/20) * e * ((16/25) * c * c + (4/5) * s),))
    # v = amp sin x with amp = 3/10 exp(h), h = 1/2 cos(phi) - 1/2 and
    # phi = x - 9t/10; h1 and h2 are dh/dphi and d2h/dphi2
    sin_x, cos_x = np.sin(x), np.cos(x)
    phase = (9/10)*t - x
    cos_phase = np.cos(phase)
    amp = (3/10)*np.exp((1/2)*cos_phase - 1/2)
    h1 = (1/2) * np.sin(phase)
    h2 = -(1/2) * cos_phase
    v = Jet(amp*sin_x, -(9/10) * amp * h1 * sin_x, (amp * (h1 * sin_x + cos_x),),
            (amp * ((h2 + h1 * h1 - 1.0) * sin_x + 2.0 * h1 * cos_x),))
    return rho, v


def _ms2d(t, x, y) -> tuple[Jet, ...]:
    """rho = 13/10 + 1/5 exp(1/2 sin(x - 2t/5) - 1/2) cos y,
    v = (1/5 sin(x + 3t/10) cos y, 3/20 cos x sin(y - t/2))."""
    sin_x, cos_x, sin_y, cos_y = np.sin(x), np.cos(x), np.sin(y), np.cos(y)
    # s = -sin(x - 2t/5), c = cos(x - 2t/5)
    phase = (2/5)*t - x
    s, c = np.sin(phase), np.cos(phase)
    e = np.exp(-1/2*s - 1/2)
    rho_x = (1/10) * e * c * cos_y
    rho = Jet((1/5)*e*cos_y + 13/10, -(2/5) * rho_x, (rho_x, -(1/5) * e * sin_y),
              ((1/5) * e * ((1/4) * c * c + (1/2) * s) * cos_y, -(1/5) * e * cos_y))
    phase = (3/10)*t + x
    s, c = np.sin(phase), np.cos(phase)
    v0 = (1/5)*s*cos_y
    v0_x = (1/5) * c * cos_y
    v_0 = Jet(v0, (3/10) * v0_x, (v0_x, -(1/5) * s * sin_y), (-v0, -v0))
    # s = -sin(y - t/2), c = cos(y - t/2)
    phase = (1/2)*t - y
    s, c = np.sin(phase), np.cos(phase)
    v1 = -3/20*s*cos_x
    v1_y = (3/20) * c * cos_x
    v_1 = Jet(v1, -(1/2) * v1_y, ((3/20) * s * sin_x, v1_y), (-v1, -v1))
    return rho, v_0, v_1


_SOLUTIONS = {ms.sid: ms for ms in (ManufacturedSolution("ms1d", 1, _ms1d),
                                    ManufacturedSolution("ms2d", 2, _ms2d))}


def manufactured_solution(sid: str) -> ManufacturedSolution:
    try:
        return _SOLUTIONS[sid]
    except KeyError:
        raise ValueError(f"unknown manufactured solution {sid!r}, "
                         f"expected one of {sorted(_SOLUTIONS)}") from None
