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
  reported as the literal quadruple sum sum_{ijk} v_j v_k d_i v_j d_i v_k;
  its sum_i (d_i |v|^2 / 2)^2 identity form is formed only by
  ``quartic_forms``, the check of the two against each other.

Unspecified analytic constants are never asserted; inequalities are tracked
as residuals that must vanish under refinement (see the acceptance suite).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Sequence
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
    _potential,
    require_positive_density,
    spectral_state,
)
from .spectral import (
    DIMENSIONS,
    ScalarField,
    SpectralGrid,
    VectorField,
    grad_hat,
    hess_hat,
    integrals,
    lp_norm,
    lp_norms,
    means,
    to_physical,
    to_physical_stage,
    to_spectral,
    to_spectral_stage,
    vector_gradient,
)

SCHEMA_VERSION = 2

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


# ---------------------------------------------------------------------------
# energy and entropies: each is its slice of ``evaluate_report``


@dataclass(frozen=True)
class EnergyParts:
    total: float
    kinetic: float
    pressure: float
    capillary: float


def energy(state: State, params: ModelParams) -> EnergyParts:
    """int (rho |u|^2 + a rho^gamma/(gamma-1) + kappa |grad sqrt(rho)|^2) dx,
    each addend reported separately (gamma = 1 uses the Pi convention)."""
    rep = evaluate_report(state, params)
    return EnergyParts(rep.energy_total, rep.energy_kinetic, rep.energy_pressure,
                       rep.energy_capillary)


def effective_energy(state: State, params: ModelParams) -> float:
    """Decaying functional of the simplified system, int (rho |v|^2 / 2 + Pi(rho)) dx."""
    return evaluate_report(state, params).effective_energy


def effective_energy_dissipation(state: State, params: ModelParams) -> tuple[float, float]:
    """Instantaneous decay rates of the effective energy: the viscous part
    mu int rho |grad v|^2 and the density-gradient part
    (kappa/mu) int P''(rho) |grad rho|^2 (both nonnegative)."""
    rep = evaluate_report(state, params)
    return rep.eff_energy_rate_viscous, rep.eff_energy_rate_pressure


@dataclass(frozen=True)
class BDEntropy:
    value: float
    viscous_rate: float
    cross_rate: float
    capillary_rate: float


def bd_entropy(state: State, params: ModelParams) -> BDEntropy:
    """int (rho |u|^2 + kappa |grad sqrt(rho)|^2 + Pi(rho)) dx, the
    ``energy`` total, plus the three instantaneous dissipation rates
    controlled by the two-velocity entropy:

    * viscous: (mu - alpha) int rho |grad u|^2 + alpha int rho |Du|^2,
      Du = grad u + (grad u)^T,
    * pressure cross term: int grad(ln rho) . grad(a rho^gamma)
      = a gamma int rho^{gamma-2} |grad rho|^2 >= 0,
    * capillary: kappa int rho sum_ij (d_i d_j ln rho)^2.
    """
    rep = evaluate_report(state, params)
    return BDEntropy(rep.energy_total, rep.bd_rate_viscous, rep.bd_rate_cross,
                     rep.bd_rate_capillary)


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
    rep = evaluate_report(state, params, MonitorSpec(delta=delta))
    return MVEntropy(rep.mv_value, rep.mv_rate_dissipation, rep.mv_rhs_bound)


@dataclass(frozen=True)
class Integrability:
    value: float
    grad_rate: float
    quartic_rate: float


def quartic_forms(v: VectorField) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise quadruple sum sum_{ijk} v_j v_k d_i v_j d_i v_k and the
    identity form sum_i (d_i |v|^2 / 2)^2 (spectral derivative of |v|^2)."""
    grid = v.grid
    square = np.empty(grid.shape)
    direct = _quartic_direct(v.data, vector_gradient(v).data, np.empty(grid.shape), square)
    halves = 0.5 * to_physical(grad_hat(to_spectral(np.sum(v.data ** 2, axis=0), grid), grid),
                               grid)
    return direct, _sum_of_squares(halves, halves[0], square)


def _quartic_direct(v: np.ndarray, grad_v: np.ndarray, out: np.ndarray,
                    square: np.ndarray) -> np.ndarray:
    """``out`` set to the direct form; ``square`` (a field) takes its
    terms.  Each sum adds its terms in the order ``np.sum`` over their axis
    adds them."""
    # sum_{jk} v_j v_k d_i v_j d_i v_k = (sum_j v_j d_i v_j)^2 for each i
    products = np.empty(v.shape)
    return _sum_of_squares((np.sum(np.multiply(v, grad_v[i], out=products), axis=0, out=square)
                            for i in range(len(v))), out, square)


def integrability_functional(state: State, params: ModelParams, p: float) -> Integrability:
    """A = (1/p) int rho |v|^p dx with the two instantaneous dissipation rates
    int rho |v|^{p-2} |grad v|^2 and (p-2) int rho (quartic form) |v|^{p-4};
    the quartic form is the quadruple sum (``quartic_forms`` checks it
    against its identity form)."""
    _P_INTEGRABILITY.enforce("integrability exponent p", p, PExponentOutOfRange)
    rep = evaluate_report(state, params, MonitorSpec(p_integrability=p))
    return Integrability(rep.int_value, rep.int_rate_grad, rep.int_rate_quartic)


def integrability_accumulated(trajectory) -> np.ndarray:
    """A(t) along a trajectory's report stream, at the run's p_integrability:
    ``int_value`` plus the time-accumulated dissipation ``int_rate_grad +
    int_rate_quartic`` (``_running_trapezoid`` over the report times).
    Returns one entry per report."""
    reports = getattr(trajectory, "reports", None)
    if not reports:
        raise EmptyTrajectory("trajectory has no reports")
    rates = reports.column("int_rate_grad") + reports.column("int_rate_quartic")
    return reports.column("int_value") + _running_trapezoid(reports.column("time"), rates)


def _running_trapezoid(times: np.ndarray, values: np.ndarray, start: float = 0.0) -> np.ndarray:
    """``start`` plus the trapezoid rule's running integral of ``values`` over
    ``times`` at each point, one term added at a time, as a Python loop adds."""
    return np.cumsum(np.append(start, 0.5 * np.diff(times) * (values[:-1] + values[1:])))


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
    rep = evaluate_report(state, params, MonitorSpec(p_vacuum=p))
    return VacuumFunctional(rep.vac_value, rep.vac_rate, rep.vac_identity_residual)


# ---------------------------------------------------------------------------
# continuation monitors


def check_serrin_pair(p: float, q: float, dim: int) -> None:
    if (fault := _serrin_fault(p, q, dim)) is not None:
        raise ScalingPairInvalid(fault)


def _serrin_fault(p: float, q: float, dim: int) -> str | None:
    """What keeps (p, q) from the continuation scaling in dimension ``dim``."""
    if not (1.0 <= p < math.inf):
        return f"need 1 <= p < inf, got p={p}"
    if not (q > 0.0):
        return f"need q > 0, got q={q}"
    if abs(1.0 / p + dim / (2.0 * q) - 0.5) > 1e-12:
        return (f"(p, q) = ({p}, {q}) violates the continuation scaling "
                f"1/p + N/(2q) = 1/2 in dimension {dim}")


def serrin_accumulator(trajectory, p: float, q: float) -> float:
    """Time-quadrature of ||v(t)||_{L^q}^p over the stored snapshots, for a
    scaling-admissible pair 1/p + N/(2q) = 1/2: the last
    ``serrin_accumulator`` of their reports (``evaluate_reports`` with
    ``trajectory.params`` and this pair), the trapezoid rule's running
    value over the snapshot times, 0.0 for one snapshot."""
    states = trajectory.states
    if not states:
        raise EmptyTrajectory("trajectory has no snapshots")
    check_serrin_pair(p, q, states[0].grid.dim)
    reports = evaluate_reports(states, trajectory.params, MonitorSpec(serrin_p=p, serrin_q=q))
    return reports.column("serrin_accumulator")[-1].item()


def vacuum_endpoint_norm(trajectory, p: float, time_exponent: float) -> float:
    """||rho^{-(p-1)/2}||_{L^k_T(L^q)} along ``trajectory`` (its stored
    snapshots), or along any iterable of same-grid states in time order,
    each read once and let go, with q derived from the parabolic
    interpolation family 2/k + N/q = N/2 of the space-time endpoints
    L^inf_T(L^2) and L^2_T(H^1); only each state's time and spatial norm
    are kept.

    These are the monitorable inputs/outputs of the interpolation chain that
    absorbs the vacuum functional's transport term; the chain itself is proof
    scaffolding and is not re-derived numerically.
    """
    _P_VACUUM.enforce("vacuum exponent p", p, PExponentOutOfRange)
    k, q, times, norms = time_exponent, None, [], []
    for state in getattr(trajectory, "states", trajectory):
        if q is None:  # the first state gives the dimension
            dim = state.grid.dim
            inv_q = 0.5 - 2.0 / (dim * k)
            if not (k >= 1.0) or inv_q < 0.0:
                raise ScalingPairInvalid(
                    f"time exponent k = {k} leaves no admissible q on the parabolic "
                    f"family 2/k + N/q = N/2 in dimension {dim}")
            q = math.inf if inv_q == 0.0 else 1.0 / inv_q
        require_positive_density(state.rho)
        times.append(state.time)
        norms.append(lp_norm(ScalarField(state.grid, state.rho.data ** (-(p - 1.0) / 2.0)), q))
    if not times:
        raise EmptyTrajectory("trajectory has no snapshots")
    if math.isinf(k):
        return float(np.max(norms))
    if len(times) == 1:
        return 0.0
    return float(np.trapezoid(np.asarray(norms) ** k, x=np.asarray(times)) ** (1.0 / k))


def vacuum_indicator(state_or_rho, eps: float, delta: float) -> float:
    """Sharp low-density mass int rho^{-eps} 1_{rho <= delta} dx (no mollification)."""
    _EPSILON.enforce("eps", eps, ValueError)
    _DELTA_VACUUM.enforce("delta", delta, ValueError)
    rho = getattr(state_or_rho, "rho", state_or_rho)
    if not isinstance(state_or_rho, SpectralState):  # whose density is checked
        require_positive_density(rho)
    return float(integrals(_low_density_weight(rho.data, eps, delta, np.empty_like(rho.data)),
                           rho.grid)[0])


def _low_density_weight(rho: np.ndarray, eps: float, delta: float,
                        out: np.ndarray) -> np.ndarray:
    """``out`` set to rho^{-eps} where rho <= delta and to 0 elsewhere."""
    mask = rho <= delta
    out[...] = 0.0
    out[mask] = rho[mask] ** (-eps)  # the power only where it counts
    return out


# ---------------------------------------------------------------------------
# per-state report


@dataclass(frozen=True)
class MonitorSpec:
    """Exponents and levels of the per-step functional report and of the
    blow-up verdict.

    ``serrin_q`` None derives the scaling-admissible q from ``serrin_p`` and
    the dimension.  A given q must satisfy 1/p + N/(2q) = 1/2 in dimension 1
    or 2, and ``serrin_pair`` checks it in the grid's dimension.  A spec that
    breaks its constraints raises one ConstraintViolationError (a ValueError)
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
        # every admissible pair has 1/p < 1/2, whatever the dimension
        p, q, p_holds = self.serrin_p, self.serrin_q, 2.0 < self.serrin_p < math.inf
        require(
            _DELTA.check("monitors.delta", self.delta),
            _P_INTEGRABILITY.check("monitors.p_integrability", self.p_integrability),
            _P_VACUUM.check("monitors.p_vacuum", self.p_vacuum),
            (p_holds, f"monitors.serrin_p must satisfy 2 < p < inf, got {p}"),
            (not p_holds or q is None or any(_serrin_fault(p, q, n) is None for n in DIMENSIONS),
             f"monitors.serrin_q must satisfy 1/p + N/(2q) = 1/2 with monitors.serrin_p "
             f"= {p} in a dimension N of {DIMENSIONS}, got {q}"),
            _EPSILON.check("monitors.epsilon", self.epsilon),
            _DELTA_VACUUM.check("monitors.delta_vacuum", self.delta_vacuum))

    def serrin_pair(self, dim: int) -> tuple[float, float]:
        """(p, q) on a grid of dimension ``dim``: the given q, checked there
        by ``check_serrin_pair``, or the q that solves 1/p + N/(2q) = 1/2."""
        q = dim / (2.0 * (0.5 - 1.0 / self.serrin_p)) if self.serrin_q is None else self.serrin_q
        check_serrin_pair(self.serrin_p, q, dim)
        return self.serrin_p, q


@dataclass(frozen=True, slots=True)
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
    bd_rate_viscous: float
    bd_rate_cross: float
    bd_rate_capillary: float
    mv_value: float
    mv_rate_dissipation: float
    mv_rhs_bound: float
    int_value: float
    int_rate_grad: float
    int_rate_quartic: float
    vac_value: float
    vac_rate: float
    vac_identity_residual: float
    vacuum_indicator: float
    serrin_integrand: float
    serrin_accumulator: float
    diverged: tuple[str, ...] = field(default=())


#: the float columns of a report, in FunctionalReport's field order
COLUMNS = tuple(f.name for f in dataclass_fields(FunctionalReport))[:-1]


class ReportTable:
    """Reports as columns: one float64 (columns x reports) array in COLUMNS
    order, grown by doubling (``columns``, none when None), and a tuple of
    each report's non-finite column names (``diverged``).  ``table[i]`` is
    report i as a FunctionalReport (i < 0 from the end), so tables iterate."""

    __slots__ = ("_data", "_length", "diverged")

    def __init__(self, columns=None, diverged: Sequence[tuple[str, ...]] = ()):
        self._data = np.empty((len(COLUMNS), 0)) if columns is None else np.asarray(columns, float)
        self._length, self.diverged = self._data.shape[1], list(diverged)

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, i: int) -> FunctionalReport:
        i = range(self._length)[i]
        return FunctionalReport(*self._data[:, i].tolist(), self.diverged[i])

    def column(self, name: str) -> np.ndarray:
        """The values of column ``name``, one a report (a view)."""
        return self._data[COLUMNS.index(name), :self._length]

    def extend(self, table: ReportTable):
        """Append the reports of ``table``, in order."""
        start, stop = self._length, self._length + len(table)
        if stop > self._data.shape[1]:
            grown = np.empty((len(COLUMNS), max(stop, 2 * self._data.shape[1])))
            grown[:, :start] = self._data[:, :start]
            self._data = grown
        self._data[:, start:stop] = table._data[:, :len(table)]
        self._length = stop
        self.diverged += table.diverged


#: the spec of a report asked for without one, built once
_DEFAULT_SPEC = MonitorSpec()

#: A batch of reports holds at most this many grid points over its members
#: (one member at least).  A 1D report costs about as much a state in batches
#: of 2048 points as of 4096, and less in the benchmark's 1D study.
_REPORT_BATCH_POINTS = 2048


def report_batch_size(grid: SpectralGrid) -> int:
    """The number of states of ``grid`` that one batch of reports takes: as
    many as _REPORT_BATCH_POINTS grid points hold, one at least, so 32 at
    N = 64, 16 at N = 128, 2 at 32^2 and one at 64^2 or finer."""
    return max(1, _REPORT_BATCH_POINTS // math.prod(grid.shape))


def evaluate_report(state: State, params: ModelParams, spec: MonitorSpec | None = None,
                    previous: FunctionalReport | None = None) -> FunctionalReport:
    """Evaluate every monitored functional on one state: the one-state case
    of ``evaluate_reports``."""
    return evaluate_reports((state,), params, spec, previous)[0]


def evaluate_reports(states: Iterable[State], params: ModelParams,
                     spec: MonitorSpec | None = None,
                     previous: FunctionalReport | None = None) -> ReportTable:
    """The reports of ``states``, any iterable of states that share one
    grid, as one table.  The states are drawn one batch of
    ``report_batch_size`` at a time, each batch only once the one before it
    is reported, and a batch is reported in one pass with its members
    stacked along a batch axis (``SpectralState.stack``); each report
    equals that of its state alone to the bit.  A functional that overflows
    is named in its member's ``diverged``, without a numpy warning.
    ``serrin_accumulator`` is the trapezoid rule's running value of
    ``serrin_integrand`` over the states' times, continued from batch to
    batch and from ``previous`` (the report before the first state), or
    from 0.0 at the first state when ``previous`` is None.

    Transform stages: sqrt(rho) and the vacuum functional's powers of rho
    forward; everything the functionals differentiate back.  Every
    temporary and every field a batch forms dies with it (``_report``);
    ``states`` gain at most the coefficients ``SpectralState.stack`` reads."""
    spec, states, table = spec or _DEFAULT_SPEC, iter(states), ReportTable()
    for first in states:
        batch = SpectralState.stack([spectral_state(s, params) for s in (
            first, *itertools.islice(states, report_batch_size(first.grid) - 1))])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            table.extend(_report(batch, params, spec, table[-1] if table else previous))
    return table


def _sum_of_squares(components, out: np.ndarray, square: np.ndarray) -> np.ndarray:
    """``out`` set to the sum of the squares of ``components`` (an array whose
    leading axes are components, or an iterable of arrays of ``out``'s shape),
    added one by one in order, as ``np.sum(a ** 2, axis=...)`` adds them, each
    square but the first formed in ``square`` (an array of ``out``'s shape,
    which may be the component itself)."""
    if isinstance(components, np.ndarray):
        components = components.reshape((-1,) + out.shape)
    components = iter(components)
    np.square(next(components), out=out)
    for part in components:
        out += np.square(part, out=square)
    return out


def _inverse_inputs(d: SpectralState, forward_hat: np.ndarray):
    """The report's inverse-stage inputs, from the coefficients of its
    forward stage (sqrt(rho), rho^{-(p-1)/2} and rho^{1-p}), in the order
    ``_report`` reads their outputs: grad rho^{-(p-1)/2}, Lap rho and
    Lap rho^{1-p}; grad sqrt(rho) and grad rho, after which the forward
    coefficients are let go; and grad grad ln rho, unless ``d`` holds it
    (an ``original`` step makes it).  Each is formed as the stage reads it
    and let go when the stage asks for the next, which on a 2D grid is
    after the report has let go of its output: no two inputs are held at
    once.  Holding an input while its output is read adds nothing to the
    report's peak, which the input and output of the transform set, and
    the heap then keeps the pages of both for the next pair instead of
    trimming and faulting them back."""
    grid, shape = d.grid, forward_hat.shape[1:]
    vac_hat = np.empty((grid.dim + 2,) + shape, complex)
    grad_hat(forward_hat[1], grid, vac_hat[:grid.dim])
    np.multiply(grid.rfft_minus_beta_sq, d.rho_hat, out=vac_hat[grid.dim])
    np.multiply(grid.rfft_minus_beta_sq, forward_hat[2], out=vac_hat[grid.dim + 1])
    yield vac_hat
    del vac_hat
    pair_hat = np.empty((grid.dim, 2) + shape, complex)
    grad_hat(forward_hat[0], grid, pair_hat[:, 0])
    grad_hat(d.rho_hat, grid, pair_hat[:, 1])
    del forward_hat
    yield pair_hat
    del pair_hat
    if not d.holds("hess_ln_rho"):
        yield hess_hat(d.ln_rho_hat, grid)


def _report(d: SpectralState, params: ModelParams, spec: MonitorSpec,
            previous: FunctionalReport | None) -> ReportTable:
    """Every column of every member in one pass over the stack ``d``: each
    pointwise field is formed once for the batch, and each integrand is
    reduced member by member (``spectral.integrals``) as soon as it is formed.
    Temporaries are new arrays, let go as they die (the forward stage's
    inputs with their stage), or rows of a transform's output that the
    report holds alone and no longer reads.  The inverse stage's outputs
    are read one at a time, in the order ``_inverse_inputs`` forms their
    inputs, and each is let go before the next is asked for, so that on a
    2D grid, where the next is made only then, one is held at a time.
    The columns go into one (columns x members) table in COLUMNS order,
    returned as it is, whose Serrin trapezoid is a running sum over its last
    row and the members' times, continued from ``previous``."""
    grid, rho, gamma = d.grid, d.rho.data, params.gamma
    members, scalar = len(rho), rho.shape
    delta, p, p_vac = spec.delta, spec.p_integrability, spec.p_vacuum
    serrin_p, serrin_q = spec.serrin_pair(grid.dim)
    # products are formed in ``scratch``, and the squares of a sum, or a
    # factor of a product, in ``square``, one at a time
    scratch, square = np.empty(scalar), np.empty(scalar)
    # v first, as it may bring grad ln rho back in a call of its own
    v = d.v
    v_sq = _sum_of_squares(v, np.empty(scalar), square)
    # the forward stage: sqrt(rho) and the vacuum functional's
    # rho^{-(p-1)/2} and rho^{1-p}, whose integral is taken first; its input
    # is let go before the inverse stage forms its own
    forward = np.empty((3,) + scalar)
    np.sqrt(rho, out=forward[0])
    np.power(rho, -(p_vac - 1.0) / 2.0, out=forward[1])
    vac_value = integrals(np.power(rho, 1.0 - p_vac, out=forward[2]), grid) / (p_vac - 1.0)
    inverse_inputs = _inverse_inputs(d, *d.fill(to_spectral_stage, extra=[forward]))
    del forward
    # the inverse stage: grad ln rho and grad w join unless the step made
    # them; its other outputs are read one at a time, each let go before
    # the next is asked for, which on a 2D grid is when it is made
    outputs = d.fill(to_physical_stage, "grad_ln_rho", "grad_w", extra=inverse_inputs)
    vac_fields = next(outputs)
    coeff = params.kappa / params.mu
    grad_half_sq = _sum_of_squares(vac_fields[:grid.dim], vac_fields[0], square)
    rate_coeff = 4.0 * p_vac * coeff / (p_vac - 1.0) ** 2
    vac_rate = rate_coeff * integrals(grad_half_sq, grid)
    # |coeff rho^{-p} Lap rho - (-(coeff / (p - 1)) Lap rho^{1-p}
    #  + rate_coeff |grad rho^{-(p-1)/2}|^2)|
    lap_rho, lap_pow = vac_fields[-2], vac_fields[-1]
    np.multiply(np.multiply(coeff, np.power(rho, -p_vac, out=square), out=square), lap_rho,
                out=lap_rho)
    np.multiply(-(coeff / (p_vac - 1.0)), lap_pow, out=lap_pow)
    lap_pow += np.multiply(rate_coeff, grad_half_sq, out=grad_half_sq)
    vac_residual = np.abs(np.subtract(lap_rho, lap_pow, out=lap_rho), out=lap_rho).reshape(
        members, -1).max(axis=1)
    del vac_fields, grad_half_sq, lap_rho, lap_pow

    def product_integrals(a, b):
        return integrals(np.multiply(a, b, out=scratch), grid)

    kinetic = product_integrals(rho, d.u_sq)
    potential = integrals(_potential(rho, params), grid)
    rho_v_sq = product_integrals(rho, v_sq)
    low_mass = integrals(_low_density_weight(rho, spec.epsilon, spec.delta_vacuum, scratch),
                         grid)
    grad_sqrt_rho_and_rho = next(outputs)
    capillary = params.kappa * integrals(
        _sum_of_squares(grad_sqrt_rho_and_rho[:, 0], scratch, square), grid)
    grad_rho_sq = _sum_of_squares(grad_sqrt_rho_and_rho[:, 1], grad_sqrt_rho_and_rho[0, 1],
                                  square)
    rho_pow_gamma_minus_2 = np.power(rho, gamma - 2.0, out=square)
    bd_cross = product_integrals(rho_pow_gamma_minus_2, grad_rho_sq)
    # P''(rho) |grad rho|^2
    eff_pressure = product_integrals(np.multiply(params.a * gamma * (gamma - 1.0),
                                                 rho_pow_gamma_minus_2, out=square), grad_rho_sq)
    del grad_sqrt_rho_and_rho, grad_rho_sq, rho_pow_gamma_minus_2

    hess = next(outputs, None)
    if hess is None:  # the batch holds it
        hess = d.hess_ln_rho
    original = params.variant == "original"
    grad_v = d.grad_w
    if original:
        grad_v = np.multiply(params.eps, hess)
        np.add(d.grad_w, grad_v, out=grad_v)
    # the quartic form is O(|v|^2) near zeros of v, so the |v|^{p-4} weight
    # stays integrable for every p > 2; zero the removable 0 * inf where v = 0
    still = np.logical_not(np.greater(v_sq, 0.0))
    speed = np.sqrt(v_sq, out=v_sq)
    # the integrals that read |grad v|^2 are taken first, so that its array
    # is let go before the quartic forms take theirs
    grad_v_sq = _sum_of_squares(grad_v, np.empty(scalar), square)
    viscous = product_integrals(rho, grad_v_sq)
    mv_dissipation = product_integrals(
        np.multiply(rho, np.power(speed, delta, out=square), out=square), grad_v_sq)
    int_grad = product_integrals(
        np.multiply(rho, np.power(speed, p - 2.0, out=square), out=square), grad_v_sq)
    del grad_v_sq
    # the direct form is formed in ``scratch``, as its integral is
    direct = _quartic_direct(v, grad_v, scratch, square)
    del grad_v
    weight = np.power(speed, p - 4.0, out=square)
    np.copyto(weight, 0.0, where=still)
    np.multiply(direct, weight, out=direct)
    np.copyto(direct, 0.0, where=still)
    int_direct = product_integrals(rho, direct)
    del still, direct, weight

    if original:
        grad_u = d.grad_w
    else:
        grad_u = np.multiply(params.eps, hess)
        np.subtract(d.grad_w, grad_u, out=grad_u)
    bd_grad = product_integrals(_sum_of_squares(grad_u, scratch, square), rho)
    # |Du|^2, each component grad_u + (grad_u)^T formed as it is squared
    bd_sym = product_integrals(_sum_of_squares((np.add(grad_u[i, j], grad_u[j, i], out=square)
                                                for i in range(grid.dim)
                                                for j in range(grid.dim)), scratch, square), rho)
    del grad_u
    bd_capillary = product_integrals(_sum_of_squares(hess, scratch, square), rho)

    inner_exp = 2.0 / (2.0 - delta)
    mv_rho = integrals(np.power(rho, (2.0 * gamma - 1.0 - delta / 2.0) * inner_exp, out=square),
                       grid)
    mean_rho = means(rho, grid).reshape((members,) + (1,) * grid.dim)
    columns = dict(
        time=d.time,
        mass=integrals(rho, grid),
        rho_min=rho.reshape(members, -1).min(axis=1),
        rho_max=rho.reshape(members, -1).max(axis=1),
        rho_variance=means(np.square(np.subtract(rho, mean_rho, out=square), out=square),
                           grid),  # np.var's steps
        max_speed=np.sqrt(d.u_sq.reshape(members, -1).max(axis=1)),
        energy_total=kinetic + potential + capillary,
        energy_kinetic=kinetic,
        energy_pressure=potential,
        energy_capillary=capillary,
        effective_energy=0.5 * rho_v_sq + potential,
        eff_energy_rate_viscous=params.mu * viscous,
        eff_energy_rate_pressure=params.eps * eff_pressure,
        bd_rate_viscous=(params.mu - params.alpha) * bd_grad + params.alpha * bd_sym,
        bd_rate_cross=params.a * gamma * bd_cross,
        bd_rate_capillary=params.kappa * bd_capillary,
        mv_value=product_integrals(rho, np.power(speed, 2.0 + delta, out=square)) / (2.0 + delta),
        mv_rate_dissipation=0.25 * params.mu * mv_dissipation,
        mv_rhs_bound=[_power(m, inner_exp) * _power(r, delta / 2.0)
                      for m, r in zip(mv_rho.tolist(), rho_v_sq.tolist())],
        int_value=product_integrals(rho, np.power(speed, p, out=square)) / p,
        int_rate_grad=int_grad,
        int_rate_quartic=(p - 2.0) * int_direct,
        vac_value=vac_value,
        vac_rate=vac_rate,
        vac_identity_residual=vac_residual,
        vacuum_indicator=low_mass,
        serrin_integrand=[_power(norm, serrin_p)
                          for norm in lp_norms(speed, serrin_q, grid, square)],
    )
    table = np.array(list(columns.values()))
    # one finiteness test of the whole (columns x members) table; names are
    # listed only for a member that holds a non-finite value
    finite = np.isfinite(table)
    diverged = [() if all_finite else tuple(k for k, ok in zip(columns, finite[:, i]) if not ok)
                for i, all_finite in enumerate(finite.all(axis=0).tolist())]
    # the Serrin trapezoid over time and serrin_integrand, the first and last
    # rows, continued from the report before
    serrin, start = table[[0, -1]], 0.0
    if previous is not None:
        serrin = np.column_stack(([previous.time, previous.serrin_integrand], serrin))
        start = previous.serrin_accumulator
    accumulated = _running_trapezoid(*serrin, start)[-members:]
    return ReportTable(np.vstack((table, accumulated)), diverged)


def _power(base: float, exponent: float) -> float:
    """Python's scalar power, as numpy's array power can be an ulp off it;
    inf where it overflows, so that the column is named in ``diverged``."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


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

    The Serrin value (the last report's ``serrin_accumulator``) and the
    vacuum-indicator series are read from the per-step report stream (dense);
    a trajectory without reports is given those of its stored snapshots,
    ``evaluate_reports(states, params, monitors)``.  A criterion passes while
    its value stays finite; the vacuum criterion also fails at the first indicator above
    VACUUM_GROWTH_FACTOR times its initial value.  A report is produced even
    for degenerate trajectories, flagged insufficient_data.
    """
    monitors = monitors or MonitorSpec()
    terminated = getattr(trajectory, "terminated", None)
    terminated_by = terminated.kind if terminated is not None else None
    terminated_time = terminated.time if terminated is not None else None

    states = list(getattr(trajectory, "states", []))
    reports = getattr(trajectory, "reports", None) or ReportTable()
    if len(states) < 2 and len(reports) < 2:
        last = states or reports
        return BlowUpReport(True, last[-1].time if last else None,
                            None, None, None, None, None, None, None,
                            terminated_by, terminated_time)

    reports = reports or evaluate_reports(states, params, monitors)
    times = reports.column("time").tolist()
    serrin_value = reports.column("serrin_accumulator")[-1].item()
    series = reports.column("vacuum_indicator").tolist()
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
