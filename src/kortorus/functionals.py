"""Energy, entropy, integrability, and blow-up functionals.

Every functional is evaluated through plain rectangle-rule quadrature of
pointwise assemblies, with spectral derivatives where gradients appear.
Conventions, stated once:

* ``energy`` integrates rho |u|^2 + a rho^gamma/(gamma-1) + kappa |grad sqrt(rho)|^2
  (no 1/2 on the kinetic part); ``effective_energy`` is the decaying functional
  of the simplified system, rho |v|^2 / 2 + Pi(rho).
* the weighted-kinetic inequality is monitored with dissipation
  (nu/4) * int rho |v|^delta |grad v|^2, nu taken equal to mu, and the
  right-hand bound evaluated verbatim as
  (int (rho^{2 gamma - 1 - delta/2})^{2/(2-delta)} dx)^{2/(2-delta)}
  * (int rho |v|^2 dx)^{delta/2}.
* the quartic dissipation of the gain-of-integrability functional is
  reported in both of its algebraic forms, the literal quadruple sum
  sum_{ijk} v_j v_k d_i v_j d_i v_k (authoritative) and the
  sum_i (d_i |v|^2 / 2)^2 identity form.

Unspecified analytic constants are never asserted; inequalities are tracked
as residuals that must vanish under refinement (see the acceptance suite).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields as dataclass_fields

import numpy as np

from .errors import (
    DeltaOutOfRange,
    EmptyTrajectory,
    PExponentOutOfRange,
    ScalingPairInvalid,
    require,
)
from .model import (
    FieldState,
    ModelParams,
    SpectralState,
    require_positive_density,
    spectral_state,
)
from .spectral import (
    ScalarField,
    VectorField,
    grad_hat,
    integrate,
    lp_norm,
    to_physical,
    to_spectral,
    vector_gradient,
)

SCHEMA_VERSION = 1

State = FieldState | SpectralState


@dataclass(frozen=True)
class _Range:
    """A monitor parameter's admissible range: one predicate and how to say it."""

    holds: Callable[[float], bool]
    text: str

    def check(self, name: str, value: float) -> tuple[bool, str]:
        """A (holds, message) pair, as ``require`` takes it."""
        return self.holds(value), f"{name} {self.text}, got {value}"

    def enforce(self, name: str, value: float, error: type[Exception]) -> None:
        if not self.holds(value):
            raise error(self.check(name, value)[1])


_DELTA = _Range(lambda delta: 0.0 < delta < 2.0, "must lie in (0, 2)")
_P_INTEGRABILITY = _Range(lambda p: p > 2.0, "must exceed 2")
_P_VACUUM = _Range(lambda p: p >= 2.0, "must be >= 2")
_EPSILON = _Range(lambda eps: eps > 0.0, "must be positive")
_DELTA_VACUUM = _Range(lambda delta: 0.0 < delta < 1.0, "must lie in (0, 1)")


def _integral(d: SpectralState | ScalarField, data: np.ndarray) -> float:
    """The rectangle rule of ``spectral.integrate`` over the grid of ``d``,
    except that an integrand that overflowed gives inf or nan instead of
    raising, so that ``evaluate_report`` can name it in ``diverged``.  The
    sum over the size is ``np.mean`` to the bit, at half its call cost."""
    return float(data.sum() / data.size * d.grid.volume)


# ---------------------------------------------------------------------------
# energy


@dataclass(frozen=True)
class EnergyParts:
    total: float
    kinetic: float
    pressure: float
    capillary: float


def energy(state: State, params: ModelParams) -> EnergyParts:
    """int (rho |u|^2 + a rho^gamma/(gamma-1) + kappa |grad sqrt(rho)|^2) dx,
    each addend reported separately (gamma = 1 uses the Pi convention)."""
    d = spectral_state(state, params)
    rho = d.rho.data
    kinetic = _integral(d, rho * d.u_sq)
    press = _integral(d, d.pressure_potential)
    capillary = params.kappa * _integral(d, d.grad_sqrt_rho_sq)
    return EnergyParts(kinetic + press + capillary, kinetic, press, capillary)


def effective_energy(state: State, params: ModelParams) -> float:
    """Decaying functional of the simplified system, int (rho |v|^2 / 2 + Pi(rho)) dx."""
    d = spectral_state(state, params)
    kinetic = 0.5 * _integral(d, d.rho.data * d.v_sq)
    return kinetic + _integral(d, d.pressure_potential)


def effective_energy_dissipation(state: State, params: ModelParams) -> tuple[float, float]:
    """Instantaneous decay rates of the effective energy: the viscous part
    mu int rho |grad v|^2 and the density-gradient part
    (kappa/mu) int P''(rho) |grad rho|^2 (both nonnegative)."""
    d = spectral_state(state, params)
    rho = d.rho.data
    viscous = params.mu * _integral(d, rho * d.grad_v_sq)
    p_second = params.a * params.gamma * (params.gamma - 1.0) * d.rho_pow_gamma_minus_2
    pressure_part = params.eps * _integral(d, p_second * d.grad_rho_sq)
    return viscous, pressure_part


# ---------------------------------------------------------------------------
# two-velocity entropy with dissipation decomposition


@dataclass(frozen=True)
class BDEntropy:
    value: float
    viscous_rate: float
    cross_rate: float
    capillary_rate: float


def bd_entropy(state: State, params: ModelParams) -> BDEntropy:
    """int (rho |u|^2 + kappa |grad sqrt(rho)|^2 + Pi(rho)) dx plus the three
    instantaneous dissipation rates controlled by the two-velocity entropy:

    * viscous: (mu - alpha) int rho |grad u|^2 + alpha int rho |Du|^2,
      Du = grad u + (grad u)^T,
    * pressure cross term: int grad(ln rho) . grad(a rho^gamma)
      = a gamma int rho^{gamma-2} |grad rho|^2 >= 0,
    * capillary: kappa int rho sum_ij (d_i d_j ln rho)^2.
    """
    d = spectral_state(state, params)
    rho = d.rho.data

    value = (_integral(d, rho * d.u_sq)
             + params.kappa * _integral(d, d.grad_sqrt_rho_sq)
             + _integral(d, d.pressure_potential))

    grad_u = d.grad_u
    grad_sq = np.sum(grad_u ** 2, axis=(0, 1))
    sym = grad_u + np.swapaxes(grad_u, 0, 1)
    sym_sq = np.sum(sym ** 2, axis=(0, 1))
    viscous = ((params.mu - params.alpha) * _integral(d, rho * grad_sq)
               + params.alpha * _integral(d, rho * sym_sq))

    cross = params.a * params.gamma * _integral(d, d.rho_pow_gamma_minus_2 * d.grad_rho_sq)

    capillary = params.kappa * _integral(d, rho * np.sum(d.hess_ln_rho ** 2, axis=(0, 1)))
    return BDEntropy(value, viscous, cross, capillary)


# ---------------------------------------------------------------------------
# weighted-kinetic (extra integrability) entropy


@dataclass(frozen=True)
class MVEntropy:
    value: float
    dissipation_rate: float
    rhs_bound: float


def mv_entropy(state: State, params: ModelParams, delta: float) -> MVEntropy:
    """Weighted kinetic functional int rho |v|^{2+delta}/(2+delta) dx with its
    dissipation (mu/4) int rho |v|^delta |grad v|^2 dx and the verbatim
    right-hand bound of the corresponding differential inequality."""
    _DELTA.enforce("delta", delta, DeltaOutOfRange)
    d = spectral_state(state, params)
    rho, speed_sq, speed = d.rho.data, d.v_sq, d.v_speed

    value = _integral(d, rho * speed ** (2.0 + delta)) / (2.0 + delta)
    dissipation = 0.25 * params.mu * _integral(d, rho * speed ** delta * d.grad_v_sq)

    inner_exp = 2.0 / (2.0 - delta)
    rho_pow = rho ** ((2.0 * params.gamma - 1.0 - delta / 2.0) * inner_exp)
    rhs = (_integral(d, rho_pow) ** inner_exp
           * _integral(d, rho * speed_sq) ** (delta / 2.0))
    return MVEntropy(value, dissipation, rhs)


# ---------------------------------------------------------------------------
# gain-of-integrability functional


@dataclass(frozen=True)
class Integrability:
    value: float
    grad_rate: float
    quartic_rate: float
    quartic_rate_identity: float


def quartic_forms(v: VectorField) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise quadruple sum sum_{ijk} v_j v_k d_i v_j d_i v_k and the
    identity form sum_i (d_i |v|^2 / 2)^2 (spectral derivative of |v|^2)."""
    grid = v.grid
    grad_v_sq = to_physical(grad_hat(to_spectral(np.sum(v.data ** 2, axis=0), grid), grid),
                            grid)
    return _quartic_forms(v.data, vector_gradient(v).data, grad_v_sq)


def _quartic_forms(v: np.ndarray, grad_v: np.ndarray,
                   grad_v_sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # sum_{jk} v_j v_k d_i v_j d_i v_k = (sum_j v_j d_i v_j)^2 for each i
    s = np.sum(v * grad_v, axis=1)
    direct = np.sum(s ** 2, axis=0)
    identity = np.sum((0.5 * grad_v_sq) ** 2, axis=0)
    return direct, identity


def integrability_functional(state: State, params: ModelParams, p: float) -> Integrability:
    """A = (1/p) int rho |v|^p dx with the two instantaneous dissipation rates
    int rho |v|^{p-2} |grad v|^2 and (p-2) int rho (quartic form) |v|^{p-4};
    the quadruple-sum assembly of the quartic form is the authoritative one,
    the identity form is reported for cross-checking."""
    _P_INTEGRABILITY.enforce("integrability exponent p", p, PExponentOutOfRange)
    d = spectral_state(state, params)
    rho, speed_sq, speed = d.rho.data, d.v_sq, d.v_speed

    value = _integral(d, rho * speed ** p) / p
    grad_rate = _integral(d, rho * speed ** (p - 2.0) * d.grad_v_sq)

    direct, identity = _quartic_forms(d.v, d.grad_v, d.grad_of_v_sq)
    # both quartic forms are O(|v|^2) near zeros of v, so the |v|^{p-4} weight
    # stays integrable for every p > 2; mask the removable 0 * inf
    safe_speed = np.where(speed_sq > 0.0, speed, 1.0)
    weight = np.where(speed_sq > 0.0, safe_speed ** (p - 4.0), 0.0)
    rate_direct = (p - 2.0) * _integral(
        d, rho * np.where(speed_sq > 0.0, direct * weight, 0.0))
    rate_identity = (p - 2.0) * _integral(
        d, rho * np.where(speed_sq > 0.0, identity * weight, 0.0))
    return Integrability(value, grad_rate, rate_direct, rate_identity)


def integrability_accumulated(trajectory, params: ModelParams, p: float) -> np.ndarray:
    """A(t) along a trajectory: instantaneous value plus time-accumulated
    dissipation integrals (trapezoidal in time).  Returns one entry per report
    time."""
    times, series = _report_times_and_states(trajectory)
    instant = [integrability_functional(s, params, p) for s in series]
    values = np.asarray([i.value for i in instant])
    rates = np.asarray([i.grad_rate + i.quartic_rate for i in instant])
    accumulated = np.concatenate([[0.0], np.cumsum(
        0.5 * (rates[1:] + rates[:-1]) * np.diff(np.asarray(times)))])
    return values + accumulated


# ---------------------------------------------------------------------------
# vacuum functional


@dataclass(frozen=True)
class VacuumFunctional:
    value: float
    rate: float
    identity_residual: float


def vacuum_functional(state: State, params: ModelParams, p: float) -> VacuumFunctional:
    """B = (1/(p-1)) int rho^{1-p} dx with its production rate
    (4 p kappa / (mu (p-1)^2)) int |grad(rho^{-(p-1)/2})|^2 dx, plus the
    max-norm residual of the pointwise multiplier identity

        (kappa/(mu rho^p)) Lap rho
            = -(kappa/(mu (p-1))) Lap(rho^{1-p})
              + (4 p kappa/(mu (p-1)^2)) |grad(rho^{-(p-1)/2})|^2.
    """
    _P_VACUUM.enforce("vacuum exponent p", p, PExponentOutOfRange)
    d = spectral_state(state, params)
    rho, grid = d.rho.data, d.grid
    coeff = params.kappa / params.mu

    rho_pow = rho ** (1.0 - p)
    value = _integral(d, rho_pow) / (p - 1.0)
    # one forward transform of rho^{-(p-1)/2} and rho^{1-p}, one inverse of
    # grad rho^{-(p-1)/2}, Lap rho and Lap rho^{1-p}
    half_hat, pow_hat = to_spectral(np.stack([rho ** (-(p - 1.0) / 2.0), rho_pow]), grid)
    lap = grid.rfft_minus_beta_sq
    fields = to_physical(np.concatenate([grad_hat(half_hat, grid),
                                         np.stack([lap * d.rho_hat, lap * pow_hat])]), grid)
    grad_half, lap_rho, lap_rho_pow = fields[:grid.dim], fields[-2], fields[-1]
    grad_half_sq = np.sum(grad_half ** 2, axis=0)
    rate_coeff = 4.0 * p * coeff / (p - 1.0) ** 2
    rate = rate_coeff * _integral(d, grad_half_sq)

    lhs = coeff * rho ** (-p) * lap_rho
    rhs = -(coeff / (p - 1.0)) * lap_rho_pow + rate_coeff * grad_half_sq
    residual = float(np.max(np.abs(lhs - rhs)))
    return VacuumFunctional(value, rate, residual)


# ---------------------------------------------------------------------------
# continuation monitors


def check_serrin_pair(p: float, q: float, dim: int) -> None:
    if not (1.0 <= p < math.inf):
        raise ScalingPairInvalid(f"need 1 <= p < inf, got p={p}")
    if not (q > 0.0):
        raise ScalingPairInvalid(f"need q > 0, got q={q}")
    if abs(1.0 / p + dim / (2.0 * q) - 0.5) > 1e-12:
        raise ScalingPairInvalid(
            f"(p, q) = ({p}, {q}) violates the continuation scaling "
            f"1/p + N/(2q) = 1/2 in dimension {dim}")


def _report_times_and_states(trajectory) -> tuple[list[float], list[FieldState]]:
    states = list(getattr(trajectory, "states", []))
    times = [s.time for s in states]
    if not states:
        raise EmptyTrajectory("trajectory has no snapshots")
    return times, states


def serrin_accumulator(trajectory, p: float, q: float,
                       params: ModelParams | None = None) -> float:
    """Time-quadrature of ||v(t)||_{L^q}^p over the stored snapshots
    (trapezoidal), for a scaling-admissible pair 1/p + N/(2q) = 1/2."""
    times, states = _report_times_and_states(trajectory)
    params = params or trajectory.params
    check_serrin_pair(p, q, states[0].grid.dim)
    norms = []
    for state in states:
        v = VectorField(state.grid, spectral_state(state, params).v)
        norms.append(lp_norm(v, q) ** p)
    if len(times) == 1:
        return 0.0
    return float(np.trapezoid(np.asarray(norms), x=np.asarray(times)))


def vacuum_endpoint_norm(trajectory, p: float, time_exponent: float) -> float:
    """||rho^{-(p-1)/2}||_{L^k_T(L^q)} along a trajectory, with q derived from
    the parabolic interpolation family 2/k + N/q = N/2 of the space-time
    endpoints L^inf_T(L^2) and L^2_T(H^1).

    These are the monitorable inputs/outputs of the interpolation chain that
    absorbs the vacuum functional's transport term; the chain itself is proof
    scaffolding and is not re-derived numerically.
    """
    _P_VACUUM.enforce("vacuum exponent p", p, PExponentOutOfRange)
    times, states = _report_times_and_states(trajectory)
    dim = states[0].grid.dim
    k = time_exponent
    inv_q = 0.5 - 2.0 / (dim * k)
    if not (k >= 1.0) or inv_q < 0.0:
        raise ScalingPairInvalid(
            f"time exponent k = {k} leaves no admissible q on the parabolic "
            f"family 2/k + N/q = N/2 in dimension {dim}")
    q = math.inf if inv_q == 0.0 else 1.0 / inv_q
    norms = []
    for state in states:
        require_positive_density(state.rho)
        weight = ScalarField(state.grid, state.rho.data ** (-(p - 1.0) / 2.0))
        norms.append(lp_norm(weight, q))
    if math.isinf(k):
        return float(np.max(norms))
    if len(times) == 1:
        return 0.0
    powered = np.asarray(norms) ** k
    return float(np.trapezoid(powered, x=np.asarray(times)) ** (1.0 / k))


def vacuum_indicator(state_or_rho, eps: float, delta: float) -> float:
    """Sharp low-density mass int rho^{-eps} 1_{rho <= delta} dx (no mollification)."""
    _EPSILON.enforce("eps", eps, ValueError)
    _DELTA_VACUUM.enforce("delta", delta, ValueError)
    rho = getattr(state_or_rho, "rho", state_or_rho)
    require_positive_density(rho)
    mask = rho.data <= delta
    integrand = np.zeros_like(rho.data)
    integrand[mask] = rho.data[mask] ** (-eps)  # the power only where it counts
    return _integral(rho, integrand)


# ---------------------------------------------------------------------------
# per-state report


@dataclass(frozen=True)
class MonitorSpec:
    """Exponents and levels of the per-step functional report and of the
    blow-up verdict.

    ``serrin_q`` None derives the scaling-admissible q from ``serrin_p`` and
    the dimension; a given pair must satisfy 1/p + N/(2q) = 1/2, which needs
    the dimension and is checked by ``check_serrin_pair``.  A spec that breaks
    its constraints raises one ConstraintViolationError (a ValueError)
    listing all of them.
    """

    delta: float = 0.5
    p_integrability: float = 4.0
    p_vacuum: float = 2.0
    serrin_p: float = 4.0
    serrin_q: float | None = None
    epsilon: float = 0.01
    delta_vacuum: float = 0.1

    def __post_init__(self):
        require(
            _DELTA.check("monitors.delta", self.delta),
            _P_INTEGRABILITY.check("monitors.p_integrability", self.p_integrability),
            _P_VACUUM.check("monitors.p_vacuum", self.p_vacuum),
            # every admissible pair has 1/p < 1/2, whatever the dimension
            (2.0 < self.serrin_p < math.inf,
             f"monitors.serrin_p must satisfy 2 < p < inf, got {self.serrin_p}"),
            _EPSILON.check("monitors.epsilon", self.epsilon),
            _DELTA_VACUUM.check("monitors.delta_vacuum", self.delta_vacuum))

    def serrin_pair(self, dim: int) -> tuple[float, float]:
        if self.serrin_q is not None:
            return self.serrin_p, self.serrin_q
        # solve 1/p + N/(2q) = 1/2 for q at the configured p
        q = dim / (2.0 * (0.5 - 1.0 / self.serrin_p))
        return self.serrin_p, q


@dataclass(frozen=True)
class FunctionalReport:
    """One row of the monitoring stream; flat so it maps 1:1 onto CSV."""

    time: float
    mass: float
    rho_min: float
    rho_max: float
    rho_variance: float
    max_speed: float
    energy_total: float
    energy_kinetic: float
    energy_pressure: float
    energy_capillary: float
    effective_energy: float
    eff_energy_rate_viscous: float
    eff_energy_rate_pressure: float
    bd_value: float
    bd_rate_viscous: float
    bd_rate_cross: float
    bd_rate_capillary: float
    mv_value: float
    mv_rate_dissipation: float
    mv_rhs_bound: float
    int_value: float
    int_rate_grad: float
    int_rate_quartic: float
    int_rate_quartic_identity: float
    vac_value: float
    vac_rate: float
    vac_identity_residual: float
    vacuum_indicator: float
    serrin_integrand: float
    serrin_accumulator: float
    diverged: tuple[str, ...] = field(default=())

    @classmethod
    def csv_header(cls) -> list[str]:
        return [f.name for f in dataclass_fields(cls) if f.name != "diverged"]

    def csv_row(self) -> list[str]:
        return [repr(getattr(self, name)) for name in self.csv_header()]

    def to_json_dict(self) -> dict:
        out = {name: getattr(self, name) for name in self.csv_header()}
        out["diverged"] = list(self.diverged)
        out["schema_version"] = SCHEMA_VERSION
        return out


def evaluate_report(state: State, params: ModelParams,
                    spec: MonitorSpec | None = None) -> FunctionalReport:
    """Evaluate every monitored functional on one state.  A functional that
    overflows is named in ``diverged``, without a numpy warning."""
    spec = spec or MonitorSpec()
    d = spectral_state(state, params)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _report(d, params, spec)


def _report(d: SpectralState, params: ModelParams, spec: MonitorSpec) -> FunctionalReport:
    rho = d.rho
    en = energy(d, params)
    eff_diss = effective_energy_dissipation(d, params)
    bd = bd_entropy(d, params)
    mv = mv_entropy(d, params, spec.delta)
    integ = integrability_functional(d, params, spec.p_integrability)
    vac = vacuum_functional(d, params, spec.p_vacuum)
    indicator = vacuum_indicator(rho, spec.epsilon, spec.delta_vacuum)
    sp_, sq = spec.serrin_pair(d.grid.dim)
    serrin_integrand = lp_norm(VectorField(d.grid, d.v), sq) ** sp_
    deviation = rho.data - rho.data.sum() / rho.data.size  # np.var's steps
    values = dict(
        time=d.time,
        mass=integrate(rho),
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
        bd_value=bd.value,
        bd_rate_viscous=bd.viscous_rate,
        bd_rate_cross=bd.cross_rate,
        bd_rate_capillary=bd.capillary_rate,
        mv_value=mv.value,
        mv_rate_dissipation=mv.dissipation_rate,
        mv_rhs_bound=mv.rhs_bound,
        int_value=integ.value,
        int_rate_grad=integ.grad_rate,
        int_rate_quartic=integ.quartic_rate,
        int_rate_quartic_identity=integ.quartic_rate_identity,
        vac_value=vac.value,
        vac_rate=vac.rate,
        vac_identity_residual=vac.identity_residual,
        vacuum_indicator=indicator,
        serrin_integrand=serrin_integrand,
        serrin_accumulator=0.0,  # running value attached by the integrator
    )
    diverged = tuple(k for k, val in values.items() if not math.isfinite(val))
    return FunctionalReport(**values, diverged=diverged)


# ---------------------------------------------------------------------------
# blow-up verdict


#: The vacuum criterion fails once the indicator exceeds this multiple of its
#: initial value.
VACUUM_GROWTH_FACTOR = 10.0


@dataclass(frozen=True)
class BlowUpReport:
    insufficient_data: bool
    final_time: float | None
    serrin_value: float | None
    serrin_pass: bool | None
    vacuum_initial: float | None
    vacuum_max: float | None
    vacuum_growth: float | None
    vacuum_pass: bool | None
    vacuum_exceeded_time: float | None
    terminated_by: str | None
    terminated_time: float | None

    def to_json_dict(self) -> dict:
        def clean(x):
            if isinstance(x, float) and not math.isfinite(x):
                return repr(x)
            return x
        return {f.name: clean(getattr(self, f.name)) for f in dataclass_fields(self)}


def blow_up_verdict(trajectory, params: ModelParams,
                    monitors: MonitorSpec | None = None) -> BlowUpReport:
    """Correlate the two continuation criteria with how the run ended.

    The Serrin value (the trapezoid of ``serrin_integrand`` in time) and the
    vacuum-indicator series are read from the per-step report stream when
    present (dense), otherwise recomputed on the stored snapshots with the
    exponents and levels of ``monitors``.  A criterion passes while its value
    stays finite; the vacuum criterion also fails at the first indicator above
    VACUUM_GROWTH_FACTOR times its initial value.  A report is produced even
    for degenerate trajectories, flagged insufficient_data.
    """
    monitors = monitors or MonitorSpec()
    terminated = getattr(trajectory, "terminated", None)
    terminated_by = terminated.kind if terminated is not None else None
    terminated_time = terminated.time if terminated is not None else None

    states = list(getattr(trajectory, "states", []))
    reports = list(getattr(trajectory, "reports", []))
    if len(states) < 2 and len(reports) < 2:
        return BlowUpReport(True, states[-1].time if states else None,
                            None, None, None, None, None, None, None,
                            terminated_by, terminated_time)

    if reports:
        times = [r.time for r in reports]
        serrin_value = float(np.trapezoid([r.serrin_integrand for r in reports], x=times))
        series = [r.vacuum_indicator for r in reports]
    else:
        times = [s.time for s in states]
        p, q = monitors.serrin_pair(states[0].grid.dim)
        serrin_value = serrin_accumulator(trajectory, p, q, params)
        series = [vacuum_indicator(s, monitors.epsilon, monitors.delta_vacuum)
                  for s in states]
    initial = series[0]
    peak = max(series)
    growth = math.inf if initial == 0.0 and peak > 0.0 else (
        peak / initial if initial > 0.0 else 0.0)
    level = VACUUM_GROWTH_FACTOR * initial
    exceeded_time = next((t for t, val in zip(times, series) if val > level), None)
    vacuum_pass = math.isfinite(peak) and exceeded_time is None
    return BlowUpReport(False, times[-1], serrin_value, math.isfinite(serrin_value),
                        initial, peak, growth, vacuum_pass, exceeded_time,
                        terminated_by, terminated_time)
