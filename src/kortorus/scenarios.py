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

Manufactured solutions carry symbolic density/velocity profiles; the forcing
that makes them exact solutions of the effective-velocity system is derived
with sympy once per (solution, parameter set) and cached.  Sympy is imported
the first time a manufactured solution is used, not with this module, so the
commands and families that never use one do not pay for it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .model import FieldState, ModelParams
from .spectral import TAU, ScalarField, SpectralGrid, VectorField

if TYPE_CHECKING:
    import sympy as sp


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


@dataclass(frozen=True)
class ManufacturedSolution:
    """Symbolic exact solution of the effective-velocity system with forcing."""

    sid: str
    dim: int
    rho_expr: sp.Expr
    v_exprs: tuple[sp.Expr, ...]

    @property
    def _coords(self) -> tuple[sp.Symbol, ...]:
        import sympy as sp
        return sp.symbols("x y")[: self.dim]

    def _lambdify(self, expr: sp.Expr):
        import sympy as sp
        t = sp.Symbol("t")
        return sp.lambdify((t, *self._coords), expr, modules="numpy")

    def state(self, grid: SpectralGrid, time: float) -> FieldState:
        if grid.dim != self.dim:
            raise ValueError(f"solution {self.sid!r} is {self.dim}-dimensional")
        mesh = grid.meshgrid()
        rho_fn, v_fns = _compiled_profile(self)
        rho = np.broadcast_to(np.asarray(rho_fn(time, *mesh), dtype=float),
                              grid.shape).copy()
        comps = [np.broadcast_to(np.asarray(fn(time, *mesh), dtype=float),
                                 grid.shape).copy() for fn in v_fns]
        return FieldState(ScalarField(grid, rho), VectorField(grid, np.stack(comps)),
                          time=max(time, 0.0))

    def forcing_exprs(self, mu: float, kappa: float, a: float,
                      gamma: float) -> tuple[sp.Expr, tuple[sp.Expr, ...]]:
        """Symbolic (f_rho, f_v) making (rho, v) an exact solution of

            d_t rho + div(rho v) - (kappa/mu) Lap rho = f_rho,
            d_t v + (u . grad) v - (div(mu rho grad v) - grad(a rho^gamma))/rho = f_v,

        with u = v - (kappa/mu) grad ln rho."""
        import sympy as sp
        t = sp.Symbol("t")
        coords = self._coords
        rho = self.rho_expr
        v = list(self.v_exprs)
        eps = kappa / mu

        u = [v[j] - eps * sp.diff(sp.log(rho), coords[j]) for j in range(self.dim)]
        div_rho_v = sum(sp.diff(rho * v[i], coords[i]) for i in range(self.dim))
        lap_rho = sum(sp.diff(rho, c, 2) for c in coords)
        f_rho = sp.diff(rho, t) + div_rho_v - eps * lap_rho

        f_v = []
        for j in range(self.dim):
            advect = sum(u[i] * sp.diff(v[j], coords[i]) for i in range(self.dim))
            diffusion = sum(sp.diff(mu * rho * sp.diff(v[j], coords[i]), coords[i])
                            for i in range(self.dim))
            grad_p = sp.diff(a * rho ** gamma, coords[j])
            f_v.append(sp.diff(v[j], t) + advect - (diffusion - grad_p) / rho)
        return f_rho, tuple(f_v)

    def forcing(self, grid: SpectralGrid, params: ModelParams):
        """Numeric forcing callable t -> (f_rho samples, f_v samples)."""
        f_rho_fn, f_v_fns = _compiled_forcing(self.sid, params.mu, params.kappa,
                                              params.a, params.gamma)
        mesh = grid.meshgrid()

        def apply(time: float):
            f_rho = np.broadcast_to(np.asarray(f_rho_fn(time, *mesh), dtype=float),
                                    grid.shape)
            f_v = np.stack([np.broadcast_to(np.asarray(fn(time, *mesh), dtype=float),
                                            grid.shape) for fn in f_v_fns])
            return f_rho, f_v

        return apply


@cache
def _registry() -> dict[str, ManufacturedSolution]:
    import sympy as sp
    t, x, y = sp.symbols("t x y")
    ms1d = ManufacturedSolution(
        "ms1d", 1,
        sp.Rational(6, 5) + sp.Rational(7, 20) * sp.exp(
            sp.Rational(4, 5) * sp.sin(x - sp.Rational(3, 5) * t) - sp.Rational(4, 5)),
        (sp.Rational(3, 10) * sp.exp(
            sp.Rational(1, 2) * sp.cos(x - sp.Rational(9, 10) * t) - sp.Rational(1, 2))
         * sp.sin(x),))
    ms2d = ManufacturedSolution(
        "ms2d", 2,
        sp.Rational(13, 10) + sp.Rational(1, 5) * sp.exp(
            sp.Rational(1, 2) * sp.sin(x - sp.Rational(2, 5) * t) - sp.Rational(1, 2))
        * sp.cos(y),
        (sp.Rational(1, 5) * sp.sin(x + sp.Rational(3, 10) * t) * sp.cos(y),
         sp.Rational(3, 20) * sp.cos(x) * sp.sin(y - sp.Rational(1, 2) * t)))
    return {ms.sid: ms for ms in (ms1d, ms2d)}


def manufactured_solution(sid: str) -> ManufacturedSolution:
    solutions = _registry()
    try:
        return solutions[sid]
    except KeyError:
        raise ValueError(f"unknown manufactured solution {sid!r}, "
                         f"expected one of {sorted(solutions)}") from None


@cache
def _compiled_profile(ms: ManufacturedSolution):
    """Numeric callables (t, *coords) -> samples of rho and of each v_j."""
    return ms._lambdify(ms.rho_expr), tuple(ms._lambdify(e) for e in ms.v_exprs)


@lru_cache(maxsize=16)
def _compiled_forcing(sid: str, mu: float, kappa: float, a: float, gamma: float):
    import sympy as sp
    ms = manufactured_solution(sid)
    f_rho, f_v = ms.forcing_exprs(mu, kappa, a, gamma)
    t = sp.Symbol("t")
    coords = ms._coords
    f_rho_fn = sp.lambdify((t, *coords), f_rho, modules="numpy", cse=True)
    f_v_fns = tuple(sp.lambdify((t, *coords), e, modules="numpy", cse=True) for e in f_v)
    return f_rho_fn, f_v_fns
