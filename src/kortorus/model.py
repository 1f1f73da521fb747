"""Isothermal capillary-fluid model on the torus.

Three right-hand sides share one assembly:

* ``original``      d_t rho + div(rho u) = 0,
                    d_t(rho u) + div(rho u x u) - div(mu rho grad u)
                    - div(alpha rho grad u^T) + grad(a rho^gamma) = div K,
* ``effective_v1``  (alpha = kappa/mu) and
* ``effective_v2``  (alpha = 0, kappa = mu^2), both advancing the effective
  velocity v = u + (kappa/mu) grad ln(rho):
                    d_t rho + div(rho v) - (kappa/mu) Lap rho = 0,
                    rho d_t v + rho u . grad v - div(mu rho grad v)
                    + grad P(rho) = 0.

The two effective variants are the same evolution operator; only the
admissible coefficient sets differ (see README).  The capillary stress
divergence is available in two independently assembled forms:
``korteweg_div_general`` for an arbitrary coefficient law kappa(rho) and
``korteweg_div_special`` for the kappa(rho) = kappa/rho closed form
kappa * div(rho grad grad ln rho); their agreement is a core verification
target.

Velocity tendencies are per unit mass, derived term by term in
``tendency_hats``; every nonlinear product is dealiased with the 2/3 rule,
and the linear diffusions act on every mode.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    CoefficientDomainError,
    ConstraintViolationError,
    InvalidField,
    NonpositiveDensity,
    VariantMismatch,
    require,
)
from .spectral import (
    ScalarField,
    SpectralGrid,
    VectorField,
    div_hat,
    grad_hat,
    gradient,
    hess_hat,
    to_physical,
    to_physical_stage,
    to_spectral,
    to_spectral_stage,
)

#: Density positivity floor.  Samples at or below it raise NonpositiveDensity
#: instead of being clipped: the vacuum monitors must never see doctored data.
RHO_FLOOR = 1e-8

VARIANTS = ("original", "effective_v1", "effective_v2")

_REL_TOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Physical coefficients and system variant.

    Constraints: mu > 0, mu > alpha >= 0, kappa > 0, a > 0, gamma >= 1.
    ``effective_v1`` additionally requires alpha = kappa/mu and
    ``effective_v2`` requires alpha = 0 with kappa = mu^2.  Construction
    raises one error listing every violated constraint: VariantMismatch when
    a variant constraint is among them, ConstraintViolationError otherwise
    (both are ValueErrors).
    """

    mu: float
    alpha: float
    kappa: float
    a: float
    gamma: float
    variant: str = "original"

    def __post_init__(self):
        mu, alpha, kappa, variant = self.mu, self.alpha, self.kappa, self.variant
        variant_checks = [
            (variant in VARIANTS, f"model.variant must be one of {VARIANTS}, got {variant!r}"),
            (variant != "effective_v1" or not mu > 0.0
             or math.isclose(alpha, kappa / mu, rel_tol=_REL_TOL),
             f"variant effective_v1 requires alpha = kappa/mu, got alpha={alpha}, "
             f"kappa/mu={kappa / mu if mu else math.nan}"),
            (variant != "effective_v2" or alpha == 0.0,
             f"variant effective_v2 requires alpha = 0, got alpha={alpha}"),
            (variant != "effective_v2" or math.isclose(kappa, mu * mu, rel_tol=_REL_TOL),
             f"variant effective_v2 requires kappa = mu^2, got kappa={kappa}, mu^2={mu * mu}"),
        ]
        require(
            (mu > 0.0, f"model.mu must be positive, got {mu}"),
            (mu > alpha >= 0.0,
             f"viscosities must satisfy mu > alpha >= 0, got mu={mu}, alpha={alpha}"),
            (kappa > 0.0, f"model.kappa must be positive, got {kappa}"),
            (self.a > 0.0, f"model.a must be positive, got {self.a}"),
            (self.gamma >= 1.0, f"model.gamma must be >= 1, got {self.gamma}"),
            *variant_checks,
            error=(ConstraintViolationError if all(holds for holds, _ in variant_checks)
                   else VariantMismatch))

    @property
    def eps(self) -> float:
        """Change-of-variables coefficient kappa/mu."""
        return self.kappa / self.mu

    def with_variant(self, variant: str) -> "ModelParams":
        return replace(self, variant=variant)


@dataclass(frozen=True, eq=False, slots=True)
class FieldState:
    """Density plus velocity sample; ``w`` is u for the original variant and
    the effective velocity v for the effective variants."""

    rho: ScalarField
    w: VectorField
    time: float = 0.0

    def __post_init__(self):
        if self.rho.grid is not self.w.grid and self.rho.grid != self.w.grid:
            raise InvalidField("density and velocity live on different grids")
        if not (self.time >= 0.0):
            raise ValueError(f"time must be nonnegative, got {self.time}")

    @property
    def grid(self) -> SpectralGrid:
        return self.rho.grid

    def validate(self) -> "FieldState":
        require_positive_density(self.rho)
        if not np.all(np.isfinite(self.w.data)):
            raise InvalidField("velocity contains non-finite samples")
        return self


def require_positive_density(rho: ScalarField) -> None:
    data = rho.data
    if not np.isfinite(data).all():
        raise InvalidField("density contains non-finite samples")
    require_above_floor(data)


def require_above_floor(data: np.ndarray) -> None:
    """Raise NonpositiveDensity at the lowest of the finite density samples
    ``data`` when it is at or below RHO_FLOOR."""
    lowest = data.argmin()
    low = float(data.flat[lowest])
    if low <= RHO_FLOOR:
        idx = tuple(int(i) for i in np.unravel_index(lowest, data.shape))
        raise NonpositiveDensity(
            f"density sample {low} at index {idx} is at or below "
            f"the positivity floor {RHO_FLOOR}", location=idx, value=low)


# ---------------------------------------------------------------------------
# pressure


def pressure(rho: ScalarField, params: ModelParams) -> ScalarField:
    """Barotropic pressure P(rho) = a rho^gamma (pointwise)."""
    require_positive_density(rho)
    return rho.with_data(params.a * rho.data ** params.gamma)


def pressure_potential(rho: ScalarField, params: ModelParams) -> ScalarField:
    """Pressure potential Pi with rho * Pi''(rho) = P'(rho).

    Pi(rho) = a rho^gamma / (gamma - 1) for gamma > 1 and
    Pi(rho) = a (rho ln rho - rho + 1) for gamma = 1 (normalized so Pi(1) = 0);
    the additive normalization cancels in every monitored difference.
    """
    require_positive_density(rho)
    return rho.with_data(_potential(rho.data, params))


def _potential(rho: np.ndarray, params: ModelParams) -> np.ndarray:
    """Pi of ``pressure_potential`` on density samples already checked."""
    if params.gamma > 1.0:
        return params.a * rho ** params.gamma / (params.gamma - 1.0)
    return params.a * (rho * np.log(rho) - rho + 1.0)


# ---------------------------------------------------------------------------
# capillarity coefficient laws


@dataclass(frozen=True)
class CoefficientLaw:
    """Twice-differentiable capillarity coefficient kappa(rho).

    ``value`` and ``derivative`` are vectorized callables of the density
    samples.  Both must stay finite on the density range in use.
    """

    value: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    label: str = "custom"


def constant_capillarity(kappa: float) -> CoefficientLaw:
    return CoefficientLaw(lambda r: np.full_like(r, kappa),
                          lambda r: np.zeros_like(r),
                          label=f"{kappa}")


def inverse_density_capillarity(kappa: float) -> CoefficientLaw:
    """kappa(rho) = kappa / rho, the law that closes into div(rho grad grad ln rho)."""
    return CoefficientLaw(lambda r: kappa / r,
                          lambda r: -kappa / r ** 2,
                          label=f"{kappa}/rho")


def power_law_capillarity(kappa: float, exponent: float) -> CoefficientLaw:
    return CoefficientLaw(lambda r: kappa * r ** exponent,
                          lambda r: kappa * exponent * r ** (exponent - 1.0),
                          label=f"{kappa} rho^{exponent}")


def _evaluate_law(law: CoefficientLaw, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        with np.errstate(all="ignore"):
            value = np.asarray(law.value(rho), dtype=float)
            deriv = np.asarray(law.derivative(rho), dtype=float)
    except (FloatingPointError, ValueError, ZeroDivisionError) as exc:
        raise CoefficientDomainError(
            f"coefficient law {law.label} failed on the density range: {exc}") from exc
    if not (np.all(np.isfinite(value)) and np.all(np.isfinite(deriv))):
        raise CoefficientDomainError(
            f"coefficient law {law.label} is non-finite on the density range "
            f"[{rho.min()}, {rho.max()}]")
    return value, deriv


# ---------------------------------------------------------------------------
# capillary stress divergence


def korteweg_div_general(rho: ScalarField, law: CoefficientLaw) -> VectorField:
    """div K = grad(rho k(rho) Lap rho + (k(rho) + rho k'(rho)) |grad rho|^2 / 2)
               - div(k(rho) grad rho x grad rho),

    assembled with spectral derivatives; both products are dealiased by
    masking their coefficients, which are then differentiated directly.
    """
    require_positive_density(rho)
    grid = rho.grid
    keep = grid.rfft_dealias_keep
    kval, kprime = _evaluate_law(law, rho.data)
    rho_hat = to_spectral(rho.data, grid)
    grad_rho = to_physical(grad_hat(rho_hat, grid), grid)
    lap_rho = to_physical(grid.rfft_minus_beta_sq * rho_hat, grid)
    grad_sq = np.sum(grad_rho ** 2, axis=0)

    scalar_part = rho.data * kval * lap_rho + 0.5 * (kval + rho.data * kprime) * grad_sq
    tensor = kval * grad_rho[:, None] * grad_rho[None]
    return VectorField(grid, to_physical(
        grad_hat(keep * to_spectral(scalar_part, grid), grid)
        - div_hat(keep * to_spectral(tensor, grid), grid), grid))


def korteweg_div_special(rho: ScalarField, kappa: float) -> VectorField:
    """Closed form for kappa(rho) = kappa/rho:

        (div K)_j = kappa * sum_i d_i(rho d_i d_j ln rho).

    The product rho d_i d_j ln rho is dealiased by masking its coefficients,
    which are then differentiated directly.
    """
    require_positive_density(rho)
    grid = rho.grid
    hess = to_physical(hess_hat(to_spectral(np.log(rho.data), grid), grid), grid)
    weighted_hat = grid.rfft_dealias_keep * to_spectral(rho.data * hess, grid)
    return VectorField(grid, kappa * to_physical(div_hat(weighted_hat, grid), grid))


# ---------------------------------------------------------------------------
# velocity change of variables


def effective_velocity(rho: ScalarField, u: VectorField, params: ModelParams) -> VectorField:
    """v = u + (kappa/mu) grad ln rho."""
    require_positive_density(rho)
    grad_ln = gradient(ScalarField(rho.grid, np.log(rho.data)))
    return VectorField(rho.grid, u.data + params.eps * grad_ln.data)


def recover_u(rho: ScalarField, v: VectorField, params: ModelParams) -> VectorField:
    """Inverse change of variables, u = v - (kappa/mu) grad ln rho."""
    require_positive_density(rho)
    grad_ln = gradient(ScalarField(rho.grid, np.log(rho.data)))
    return VectorField(rho.grid, v.data - params.eps * grad_ln.data)


# ---------------------------------------------------------------------------
# derived fields of one state


class _Transformed:
    """A SpectralState field that is ``stage`` of ``source(d)``, held once
    read, like a cached property; ``SpectralState.fill`` computes several."""

    def __init__(self, stage, source):
        self.stage, self.source = stage, source

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, d, owner=None):
        if d is None:
            return self
        d.fill(self.stage, self.name)
        return d.__dict__[self.name]


class _Stacked(NamedTuple):
    """Samples of same-grid fields along a batch axis after their component
    axes, in the place of a ScalarField or VectorField (each member's own
    field was checked)."""

    grid: SpectralGrid
    data: np.ndarray


class _StackedState(NamedTuple):
    """Same-grid states as one, in the place of a FieldState: the samples
    along a batch axis, and the members' times."""

    grid: SpectralGrid
    rho: _Stacked
    w: _Stacked
    time: tuple[float, ...]


def _along_batch(arrays: Sequence[np.ndarray], grid: SpectralGrid) -> np.ndarray:
    """``arrays``, one field each (component axes, then the grid axes; rfft
    coefficients count as grid axes), stacked along a batch axis placed
    before the grid axes; one array gives a view.  Joined along their first
    grid axis, the members lie in memory as the stack does, so one C copy
    and a reshape make it."""
    shape = arrays[0].shape
    axis = len(shape) - grid.dim
    if len(arrays) == 1:
        return arrays[0][(slice(None),) * axis + (None,)]
    return np.concatenate(arrays, axis).reshape(shape[:axis] + (len(arrays),) + shape[axis:])


class SpectralState:
    """One state's spectral coefficients and the derived fields that the
    step and the report share, each computed at most once: ln rho, grad ln
    rho, u, v and the transport velocity, grad w, the Hessian of ln rho
    and |u|^2 (arrays; vector and tensor components lead).
    The transforms go in the dependency stages that the stepper,
    ``tendency_hats`` and ``evaluate_report`` ask ``fill`` for; a field
    read on its own is a stage of its own.  A bare state first sends rho,
    the components of w and ln rho forward in one call.

    ``rhs``, ``cfl_dt`` and ``evaluate_report`` accept it in place of the
    FieldState it wraps, so they share this work.  Build it with
    ``spectral_state``, which validates the state; the stepper builds it from
    the coefficients it has just advanced and checked.  ``stack`` joins
    several into one with a batch axis.
    """

    def __init__(self, state: FieldState, params: ModelParams,
                 rho_hat: np.ndarray | None = None, w_hat: np.ndarray | None = None):
        self.state, self.params, self.grid = state, params, state.grid
        self.rho, self.w, self.time = state.rho, state.w, state.time
        self._bare = rho_hat is None
        if not self._bare:
            self.rho_hat, self.w_hat = rho_hat, w_hat

    @classmethod
    def stack(cls, members: Sequence["SpectralState"]) -> "SpectralState":
        """``members`` (one grid, one ``params``) as one SpectralState whose
        arrays carry a batch axis between the component axes and the grid
        axes, for kernels that reduce member by member.  Its ``time`` lists
        the members' times.

        A derived field that every member holds is stacked, copied into one
        array in C (``_along_batch``); the others are computed once, on the
        batch, when read, and die with it.  Members that are all bare go
        forward as one bare batch; otherwise each member's own coefficients
        are stacked (a bare one computes and keeps its own), so that a
        stepped state keeps the ones its step made.  One member gives views."""
        first, *others = members
        grid = first.grid
        if any(m.grid is not grid and m.grid != grid for m in others):
            raise InvalidField("stacked states must share one grid")
        state = _StackedState(
            grid, _Stacked(grid, _along_batch([m.rho.data for m in members], grid)),
            _Stacked(grid, _along_batch([m.w.data for m in members], grid)),
            tuple(m.time for m in members))
        bare = all(m._bare for m in members)
        d = cls(state, first.params, *(() if bare else (
            _along_batch([m.rho_hat for m in members], grid),
            _along_batch([m.w_hat for m in members], grid))))
        held = (first.__dict__.keys() & _DERIVED) - d.__dict__.keys()
        for name in held.intersection(*(m.__dict__ for m in others)):
            d.__dict__[name] = _along_batch([m.__dict__[name] for m in members], grid)
        return d

    def fill(self, stage, *names: str, extra=()) -> Iterator[np.ndarray]:
        """Compute the fields ``names`` that are not held yet, and ``stage``
        of the arrays ``extra`` (an iterable, which the stage may read
        lazily), as one stage; store the former and return an iterator over
        the latter.  The source of each of ``names`` is formed as the stage
        reads it, so that a new array is let go once transformed.  On a 2D
        grid each of the latter is transformed when the iterator is asked
        for it (``spectral._stage``), so that a reader that lets each go
        before it asks for the next holds one at a time; it must take them
        all."""
        if self._bare:
            self._bare = False
            rho = self.rho.data
            hats = to_spectral(np.concatenate([rho[None], self.w.data, np.log(rho)[None]]),
                               self.grid)
            self.rho_hat, self.w_hat, self.ln_rho_hat = hats[0], hats[1:-1], hats[-1]
        todo = [name for name in names if name not in self.__dict__]
        sources = (getattr(type(self), name).source(self) for name in todo)
        out = iter(stage(itertools.chain(sources, extra), self.grid))
        self.__dict__.update(zip(todo, out))
        return out

    def holds(self, name: str) -> bool:
        """Whether the derived field ``name`` is computed and held."""
        return name in self.__dict__

    rho_hat = _Transformed(to_spectral_stage, lambda d: d.rho.data)
    w_hat = _Transformed(to_spectral_stage, lambda d: d.w.data)
    ln_rho_hat = _Transformed(to_spectral_stage, lambda d: np.log(d.rho.data))
    grad_ln_rho = _Transformed(to_physical_stage, lambda d: grad_hat(d.ln_rho_hat, d.grid))
    grad_w = _Transformed(to_physical_stage, lambda d: grad_hat(d.w_hat, d.grid))
    hess_ln_rho = _Transformed(to_physical_stage, lambda d: hess_hat(d.ln_rho_hat, d.grid))

    @cached_property
    def u(self) -> np.ndarray:
        if self.params.variant == "original":
            return self.w.data
        return self.w.data - self.params.eps * self.grad_ln_rho

    @cached_property
    def v(self) -> np.ndarray:
        if self.params.variant == "original":
            return self.w.data + self.params.eps * self.grad_ln_rho
        return self.w.data

    @cached_property
    def transport(self) -> np.ndarray:  # u - mu grad ln rho, see tendency_hats
        return self.u - self.params.mu * self.grad_ln_rho

    @cached_property
    def u_sq(self) -> np.ndarray:
        return (self.u ** 2).sum(axis=0)


#: the derived fields of a SpectralState, which ``SpectralState.stack`` takes
#: from its members where every member holds one
_DERIVED = tuple(name for name, attr in vars(SpectralState).items()
                 if isinstance(attr, (_Transformed, cached_property)))


def spectral_state(state: FieldState | SpectralState, params: ModelParams) -> SpectralState:
    """The SpectralState of ``state`` under ``params`` (``state`` itself when
    it already is one for these parameters)."""
    if isinstance(state, SpectralState):
        if state.params is params or state.params == params:
            return state
        return SpectralState(state.state, params, state.rho_hat, state.w_hat)
    return SpectralState(state.validate(), params)


# ---------------------------------------------------------------------------
# right-hand sides


def tendency_hats(d: SpectralState, forcing=()) -> tuple[np.ndarray, np.ndarray]:
    """rfft coefficients of (d rho/dt, d w/dt) without their linear
    diffusions (kappa/mu) Lap rho and mu Lap w, which the step integrates
    and ``rhs`` adds back, each plus its source sampled in ``forcing`` =
    (f_rho, f_w) if given.  Each sum is formed in place in its first term, a
    new array, and the tendencies in the arrays that the transforms
    returned: the bits of the plain numpy expressions, with fewer
    temporaries.

    d rho/dt = -div(rho w) in every variant, and d w/dt is per unit mass.
    With L = ln rho, g = grad L, u the advecting velocity and the stress
    T_ij = mu d_i w_j, plus alpha d_j w_i + kappa d_i d_j L in ``original``
    (kappa div(rho grad grad L) is div K of the kappa/rho law),

        d_t w = div(rho T) / rho - (u . grad) w - grad P / rho
              = div T + g . T - (u . grad) w - a gamma rho^(gamma-1) g,

    as div(rho T)_j / rho = sum_i (d_i T_ij + g_i T_ij).  Term by term, mu
    gives mu Lap w - ((u - mu g) . grad) w, a transport at the speed
    ``SpectralState.transport`` that ``cfl_dt`` bounds; alpha gives
    alpha (grad div w + (d_j w_i) g_i); kappa gives kappa (grad Lap L +
    (d_i d_j L) g_i) = kappa grad(Lap L + |g|^2 / 2), the Bohm potential
    2 kappa grad(Lap sqrt(rho) / sqrt(rho)).

    div T is a symbol on the coefficients of w and L and the rest is formed
    pointwise: nothing is multiplied by rho to be divided by it again, which
    would amplify truncation error by 1/rho.  Stages, one order for every
    variant: L, rho w and the forcing forward; g and grad w (and grad grad L
    in ``original``) back; the pointwise part forward.

    The truncation rule, stated once: the 2/3 mask covers all that is
    returned, so every nonlinear product is dealiased by masking its
    coefficients, and the linear diffusions act on every mode.  ``original``
    has no density diffusion, so its density modes above the cutoff are
    carried as they are."""
    params, grid, rho = d.params, d.grid, d.rho.data
    original = params.variant == "original"
    flux_hat, *forcing_hats = d.fill(to_spectral_stage, "ln_rho_hat",
                                     extra=[rho * d.w.data, *forcing])
    d.fill(to_physical_stage, "grad_ln_rho", "grad_w", *(["hess_ln_rho"] if original else []))
    g = d.grad_ln_rho
    explicit = np.einsum("i...,ij...->j...", d.transport, d.grad_w)
    np.negative(explicit, out=explicit)
    explicit -= params.a * params.gamma * rho ** (params.gamma - 1.0) * g
    if original:
        stress = params.alpha * np.swapaxes(d.grad_w, 0, 1)
        stress += params.kappa * d.hess_ln_rho
        explicit += np.einsum("i...,ij...->j...", g, stress)
    (dw_hat,) = d.fill(to_spectral_stage, extra=[explicit])
    if original:
        potential_hat = params.alpha * div_hat(d.w_hat, grid)
        potential_hat += params.kappa * grid.rfft_minus_beta_sq * d.ln_rho_hat
        dw_hat += grad_hat(potential_hat, grid)
    flux_hat *= grid.rfft_dealias_keep
    drho_hat = div_hat(flux_hat, grid, flux_hat)
    np.negative(drho_hat, out=drho_hat)
    dw_hat *= grid.rfft_dealias_keep
    if forcing_hats:
        drho_hat += forcing_hats[0]
        dw_hat += forcing_hats[1]
    return drho_hat, dw_hat


def rhs(state: FieldState | SpectralState,
        params: ModelParams) -> tuple[ScalarField, VectorField]:
    """Time derivative (d rho/dt, d w/dt) for the configured variant, the
    velocity's per unit mass: ``tendency_hats`` with the diffusions mu Lap w
    and, in the effective variants, (kappa/mu) Lap rho added back."""
    d = spectral_state(state, params)
    drho_hat, dw_hat = tendency_hats(d)
    if params.variant != "original":
        drho_hat += params.eps * d.grid.rfft_minus_beta_sq * d.rho_hat
    dw_hat += params.mu * d.grid.rfft_minus_beta_sq * d.w_hat
    drho, dw = to_physical_stage([drho_hat, dw_hat], d.grid)
    return ScalarField(d.grid, drho), VectorField(d.grid, dw)
