"""The per-state report computed functional by functional: the reference
that ``evaluate_report`` and its public slices (``energy``, ``bd_entropy``,
...) must equal bit for bit.

Each functional below is a separate function over a ``ReferenceState``,
which adds to ``SpectralState`` the derived fields the functionals share,
each transformed on its own and cached once read.  Nothing here is shared
with the report's one-pass kernel: every integrand is formed and summed
on its own.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from kortorus.functionals import (
    BDEntropy,
    EnergyParts,
    Integrability,
    MonitorSpec,
    MVEntropy,
    VacuumFunctional,
    bd_entropy as public_bd_entropy,
    effective_energy as public_effective_energy,
    effective_energy_dissipation as public_effective_energy_dissipation,
    energy as public_energy,
    integrability_functional as public_integrability_functional,
    mv_entropy as public_mv_entropy,
    vacuum_functional as public_vacuum_functional,
    vacuum_indicator as public_vacuum_indicator,
)
from kortorus.model import (
    FieldState,
    ModelParams,
    SpectralState,
    _Transformed,
    pressure_potential,
)
from kortorus.spectral import (
    ScalarField,
    grad_hat,
    lp_norm,
    to_physical_stage,
    to_spectral_stage,
)


class ReferenceState(SpectralState):
    """A SpectralState with the report's shared fields as fields of its own."""

    #: coefficients of sqrt(rho)
    sqrt_rho_hat = _Transformed(to_spectral_stage, lambda d: np.sqrt(d.rho.data))
    #: grad sqrt(rho) and grad rho as components [:, 0] and [:, 1]
    grad_sqrt_rho_and_rho = _Transformed(to_physical_stage, lambda d: grad_hat(
        np.stack([d.sqrt_rho_hat, d.rho_hat]), d.grid))

    @cached_property
    def grad_u(self) -> np.ndarray:
        if self.params.variant == "original":
            return self.grad_w
        return self.grad_w - self.params.eps * self.hess_ln_rho

    @cached_property
    def grad_v(self) -> np.ndarray:
        if self.params.variant == "original":
            return self.grad_w + self.params.eps * self.hess_ln_rho
        return self.grad_w

    @cached_property
    def grad_rho_sq(self) -> np.ndarray:
        return np.sum(self.grad_sqrt_rho_and_rho[:, 1] ** 2, axis=0)

    @cached_property
    def grad_sqrt_rho_sq(self) -> np.ndarray:
        return np.sum(self.grad_sqrt_rho_and_rho[:, 0] ** 2, axis=0)

    @cached_property
    def rho_pow_gamma_minus_2(self) -> np.ndarray:
        return self.rho.data ** (self.params.gamma - 2.0)

    @cached_property
    def v_sq(self) -> np.ndarray:
        return np.sum(self.v ** 2, axis=0)

    @cached_property
    def v_speed(self) -> np.ndarray:
        return np.sqrt(self.v_sq)

    @cached_property
    def grad_v_sq(self) -> np.ndarray:
        return np.sum(self.grad_v ** 2, axis=(0, 1))

    @cached_property
    def pressure_potential(self) -> np.ndarray:
        if self.params.gamma > 1.0:  # pressure_potential's a rho^gamma / (gamma - 1)
            pressure = self.params.a * self.rho.data ** self.params.gamma
            return pressure / (self.params.gamma - 1.0)
        return pressure_potential(self.rho, self.params).data


def reference_state(state: FieldState | SpectralState, params: ModelParams) -> ReferenceState:
    """A fresh ReferenceState of ``state``; a SpectralState gives its
    coefficients, so that a stepped state is measured from the same ones."""
    if isinstance(state, SpectralState):
        return ReferenceState(state.state, params, state.rho_hat, state.w_hat)
    return ReferenceState(state.validate(), params)


def _integral(d, data: np.ndarray) -> float:
    return float(data.sum() / data.size * d.grid.volume)


def energy(d: ReferenceState, params: ModelParams) -> EnergyParts:
    rho = d.rho.data
    kinetic = _integral(d, rho * d.u_sq)
    press = _integral(d, d.pressure_potential)
    capillary = params.kappa * _integral(d, d.grad_sqrt_rho_sq)
    return EnergyParts(kinetic + press + capillary, kinetic, press, capillary)


def effective_energy(d: ReferenceState, params: ModelParams) -> float:
    kinetic = 0.5 * _integral(d, d.rho.data * d.v_sq)
    return kinetic + _integral(d, d.pressure_potential)


def effective_energy_dissipation(d: ReferenceState, params: ModelParams) -> tuple[float, float]:
    rho = d.rho.data
    viscous = params.mu * _integral(d, rho * d.grad_v_sq)
    p_second = params.a * params.gamma * (params.gamma - 1.0) * d.rho_pow_gamma_minus_2
    pressure_part = params.eps * _integral(d, p_second * d.grad_rho_sq)
    return viscous, pressure_part


def bd_entropy(d: ReferenceState, params: ModelParams) -> BDEntropy:
    """Its value is ``energy``'s total."""
    rho = d.rho.data
    value = energy(d, params).total

    grad_u = d.grad_u
    grad_sq = np.sum(grad_u ** 2, axis=(0, 1))
    sym = grad_u + np.swapaxes(grad_u, 0, 1)
    sym_sq = np.sum(sym ** 2, axis=(0, 1))
    viscous = ((params.mu - params.alpha) * _integral(d, rho * grad_sq)
               + params.alpha * _integral(d, rho * sym_sq))

    cross = params.a * params.gamma * _integral(d, d.rho_pow_gamma_minus_2 * d.grad_rho_sq)

    capillary = params.kappa * _integral(d, rho * np.sum(d.hess_ln_rho ** 2, axis=(0, 1)))
    return BDEntropy(value, viscous, cross, capillary)


def mv_entropy(d: ReferenceState, params: ModelParams, delta: float) -> MVEntropy:
    rho, speed_sq, speed = d.rho.data, d.v_sq, d.v_speed

    value = _integral(d, rho * speed ** (2.0 + delta)) / (2.0 + delta)
    dissipation = 0.25 * params.mu * _integral(d, rho * speed ** delta * d.grad_v_sq)

    inner_exp = 2.0 / (2.0 - delta)
    rho_pow = rho ** ((2.0 * params.gamma - 1.0 - delta / 2.0) * inner_exp)
    rhs = (_integral(d, rho_pow) ** inner_exp
           * _integral(d, rho * speed_sq) ** (delta / 2.0))
    return MVEntropy(value, dissipation, rhs)


def integrability_functional(d: ReferenceState, params: ModelParams, p: float) -> Integrability:
    rho, speed_sq, speed = d.rho.data, d.v_sq, d.v_speed

    value = _integral(d, rho * speed ** p) / p
    grad_rate = _integral(d, rho * speed ** (p - 2.0) * d.grad_v_sq)

    s = np.sum(d.v * d.grad_v, axis=1)  # the quadruple sum, one square per i
    direct = np.sum(s ** 2, axis=0)
    safe_speed = np.where(speed_sq > 0.0, speed, 1.0)
    weight = np.where(speed_sq > 0.0, safe_speed ** (p - 4.0), 0.0)
    rate_direct = (p - 2.0) * _integral(
        d, rho * np.where(speed_sq > 0.0, direct * weight, 0.0))
    return Integrability(value, grad_rate, rate_direct)


def vacuum_functional(d: ReferenceState, params: ModelParams, p: float) -> VacuumFunctional:
    rho, grid = d.rho.data, d.grid
    coeff = params.kappa / params.mu
    rho_pow = rho ** (1.0 - p)
    ((half_hat, pow_hat),) = d.fill(to_spectral_stage, extra=[
        np.stack([rho ** (-(p - 1.0) / 2.0), rho_pow])])
    lap = grid.rfft_minus_beta_sq
    (fields,) = d.fill(to_physical_stage, extra=[np.concatenate([
        grad_hat(half_hat, grid), np.stack([lap * d.rho_hat, lap * pow_hat])])])

    value = _integral(d, rho_pow) / (p - 1.0)
    grad_half, lap_rho, lap_rho_pow = fields[:grid.dim], fields[-2], fields[-1]
    grad_half_sq = np.sum(grad_half ** 2, axis=0)
    rate_coeff = 4.0 * p * coeff / (p - 1.0) ** 2
    rate = rate_coeff * _integral(d, grad_half_sq)

    lhs = coeff * rho ** (-p) * lap_rho
    rhs = -(coeff / (p - 1.0)) * lap_rho_pow + rate_coeff * grad_half_sq
    residual = float(np.max(np.abs(lhs - rhs)))
    return VacuumFunctional(value, rate, residual)


def vacuum_indicator(d: ReferenceState, eps: float, delta: float) -> float:
    rho = d.rho
    mask = rho.data <= delta
    integrand = np.zeros_like(rho.data)
    integrand[mask] = rho.data[mask] ** (-eps)
    return _integral(rho, integrand)


def reference_report(state: FieldState | SpectralState, params: ModelParams,
                     spec: MonitorSpec) -> dict[str, float]:
    """Every column of ``evaluate_report(state, params, spec)`` but the
    Serrin accumulator, from the functionals above on a fresh reference
    state; an overflow gives inf or nan without a warning."""
    d = reference_state(state, params)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vac = vacuum_functional(d, params, spec.p_vacuum)
        rho = d.rho
        en = energy(d, params)
        eff_diss = effective_energy_dissipation(d, params)
        bd = bd_entropy(d, params)
        mv = mv_entropy(d, params, spec.delta)
        integ = integrability_functional(d, params, spec.p_integrability)
        sp_, sq = spec.serrin_pair(d.grid.dim)
        serrin_integrand = lp_norm(ScalarField(d.grid, d.v_speed), sq) ** sp_
        deviation = rho.data - rho.data.sum() / rho.data.size
        return dict(
            time=d.time,
            mass=_integral(d, rho.data),
            rho_min=float(rho.data.min()),
            rho_max=float(rho.data.max()),
            rho_variance=float(np.square(deviation).sum() / deviation.size),
            max_speed=math.sqrt(d.u_sq.max()),
            energy_total=en.total,
            energy_kinetic=en.kinetic,
            energy_pressure=en.pressure,
            energy_capillary=en.capillary,
            effective_energy=effective_energy(d, params),
            eff_energy_rate_viscous=eff_diss[0],
            eff_energy_rate_pressure=eff_diss[1],
            bd_rate_viscous=bd.viscous_rate,
            bd_rate_cross=bd.cross_rate,
            bd_rate_capillary=bd.capillary_rate,
            mv_value=mv.value,
            mv_rate_dissipation=mv.dissipation_rate,
            mv_rhs_bound=mv.rhs_bound,
            int_value=integ.value,
            int_rate_grad=integ.grad_rate,
            int_rate_quartic=integ.quartic_rate,
            vac_value=vac.value,
            vac_rate=vac.rate,
            vac_identity_residual=vac.identity_residual,
            vacuum_indicator=vacuum_indicator(d, spec.epsilon, spec.delta_vacuum),
            serrin_integrand=serrin_integrand,
        )


def public_columns(state: FieldState | SpectralState, params: ModelParams,
                   spec: MonitorSpec) -> dict[str, float]:
    """The report columns that the public functionals give on ``state``."""
    en = public_energy(state, params)
    bd = public_bd_entropy(state, params)
    mv = public_mv_entropy(state, params, spec.delta)
    integ = public_integrability_functional(state, params, spec.p_integrability)
    vac = public_vacuum_functional(state, params, spec.p_vacuum)
    viscous, pressure = public_effective_energy_dissipation(state, params)
    return dict(
        energy_total=en.total, energy_kinetic=en.kinetic, energy_pressure=en.pressure,
        energy_capillary=en.capillary, effective_energy=public_effective_energy(state, params),
        eff_energy_rate_viscous=viscous, eff_energy_rate_pressure=pressure,
        bd_rate_viscous=bd.viscous_rate, bd_rate_cross=bd.cross_rate,
        bd_rate_capillary=bd.capillary_rate, mv_value=mv.value,
        mv_rate_dissipation=mv.dissipation_rate, mv_rhs_bound=mv.rhs_bound,
        int_value=integ.value, int_rate_grad=integ.grad_rate,
        int_rate_quartic=integ.quartic_rate, vac_value=vac.value,
        vac_rate=vac.rate, vac_identity_residual=vac.identity_residual,
        vacuum_indicator=public_vacuum_indicator(state, spec.epsilon, spec.delta_vacuum))


def bitwise(values: dict[str, float]) -> dict[str, object]:
    """``values`` with each nan replaced by a marker, so that == compares
    overflowed columns too."""
    return {name: "nan" if math.isnan(x) else x for name, x in values.items()}
