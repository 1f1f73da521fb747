"""IMEX time integration with step-size control and positivity guarding.

The density equation is advanced with an exact spectral integrating factor
for its linear diffusion (kappa/mu) Lap rho (absent in the ``original``
variant) and an explicit transport term; the velocity equation treats its
viscous diffusion mu Lap implicitly and the remainder explicitly.  The
velocity tendency is per unit mass (``model.tendency_hats``), so it diffuses
at the rate mu whatever the density, and the per-mode solves stay diagonal;
``cfl_dt`` bounds the transport that is left explicit.

Schemes:

* ``imex_euler``   exponential Euler on the density
                   (rho_hat' = E rho_hat + dt phi1 N_hat, E = exp(-lam dt)),
                   backward Euler on the velocity's mu Lap; first order.
* ``imex_bdf2``    two-step variable-step BDF with explicit extrapolation of
                   the nonlinear terms, density again under the integrating
                   factor; second order.  The first step bootstraps with
                   imex_euler.

Positivity is guarded by reject-and-halve: a step that lands at or below the
density floor, or makes a non-finite sample, is retried with dt/2 down to
dt_min, then the failure is raised (never clipped, so the vacuum monitors
retain their meaning).  On a 1D grid the halvings after a rejection are
evaluated together (``Stepper.probe``), and the step is retried once, at the
first that passes; the run is the same, bit for bit, as one that tries them
one by one.

A step computes each quantity once at the scope it depends on.  Once per
run (a Stepper): the linear rates (kappa/mu) -Lap of the density and
mu -Lap of the velocity, and the workspace whose arrays the temporaries of
every report batch of the run take in turn (``spectral.Workspace``).  The
step's own kernels, the tendencies and the Euler and BDF2 combinations, are
numpy expressions whose sums are formed in place, at every grid size.
Once per dt, and per previous dt for imex_bdf2:
E = exp(-lam dt), dt phi1 and the velocity's divisor 1 + mu k^2 dt, or the
BDF2 weights with the integrating factors folded in and the divisor
a0 + mu k^2 dt; the Stepper holds these sets up to _FACTOR_CACHE_ENTRIES
entries in all, so a retry at a dt taken before and every step of a
fixed-dt run reuse them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NonFinite, NonpositiveDensity, PositivityLoss, StepUnderflow, require
from .functionals import (
    FunctionalReport,
    MonitorSpec,
    evaluate_report,
    evaluate_reports,
    report_batch_size,
)
from .model import (
    RHO_FLOOR,
    FieldState,
    ModelParams,
    SpectralState,
    require_above_floor,
    spectral_state,
    tendency_hats,
)
from .spectral import (
    ScalarField,
    SpectralGrid,
    VectorField,
    Workspace,
    grad_hat,
    to_physical,
    to_physical_stage,
)

SCHEMES = ("imex_euler", "imex_bdf2")

ForcingFn = Callable[[float], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class IntegratorConfig:
    """Step-size and scheme selection.

    ``snapshot_interval`` decouples output cadence from dt (None stores every
    accepted step); ``adaptive`` disables the CFL controller for fixed-dt
    convergence studies.  A config that breaks its constraints raises one
    ConstraintViolationError (a ValueError) listing all of them.
    """

    dt_initial: float
    dt_min: float
    t_end: float
    cfl_safety: float = 0.9
    scheme: str = "imex_euler"
    snapshot_interval: float | None = None
    adaptive: bool = True

    def __post_init__(self):
        interval = self.snapshot_interval
        require(
            (self.dt_initial > 0.0,
             f"integrator.dt_initial must be positive, got {self.dt_initial}"),
            (0.0 < self.dt_min <= self.dt_initial,
             f"need 0 < dt_min <= dt_initial, got dt_min={self.dt_min}, "
             f"dt_initial={self.dt_initial}"),
            (self.t_end > 0.0, f"integrator.t_end must be positive, got {self.t_end}"),
            (0.0 < self.cfl_safety <= 1.0,
             f"integrator.cfl_safety must lie in (0, 1], got {self.cfl_safety}"),
            (self.scheme in SCHEMES,
             f"integrator.scheme must be one of {SCHEMES}, got {self.scheme!r}"),
            (interval is None or interval > 0.0,
             f"integrator.snapshot_interval must be positive, got {interval}"))


@dataclass(frozen=True, slots=True)
class TerminationInfo:
    kind: str  # "PositivityLoss" | "StepUnderflow" | "NonFinite"
    message: str
    time: float


@dataclass
class Trajectory:
    """Snapshots at the configured cadence plus the per-step report stream.

    ``states`` holds the captured snapshots (first one at t = 0) and
    ``reports`` one FunctionalReport per accepted step including the initial
    state; without a cadence every accepted step is a snapshot.  Both are
    slotted records that hold their arrays and floats alone: a kept 1D
    state and its report take about 2.5 KB at N = 64 and 3.5 KB at
    N = 128.  ``terminated`` is None for a clean run to t_end.  ``run``
    fills a trajectory through ``record`` and ``capture`` only; a subclass
    that overrides ``keep`` can stream the snapshots elsewhere instead of
    holding them.  ``run`` records the reports of a batch of steps in one
    call, after capturing the batch's snapshots.
    """

    params: ModelParams
    states: list[FieldState] = field(default_factory=list)
    reports: list[FunctionalReport] = field(default_factory=list)
    terminated: TerminationInfo | None = None
    snapshots: int = field(init=False)
    _last_capture: float | None = field(init=False, repr=False)

    def __post_init__(self):
        self.snapshots = len(self.states)
        self._last_capture = self.states[-1].time if self.states else None

    @property
    def times(self) -> list[float]:
        return [s.time for s in self.states]

    @property
    def final_state(self) -> FieldState:
        return self.states[-1]

    def record(self, *reports: FunctionalReport):
        """Append the reports of accepted steps, in step order (the first
        ever is the initial state's)."""
        self.reports += reports

    def capture(self, state: FieldState):
        """Take ``state`` as the next snapshot, unless its time does not pass
        the last snapshot's: snapshot times strictly increase."""
        if self._last_capture is not None and not (state.time > self._last_capture):
            return
        self._last_capture = state.time
        self.snapshots += 1
        self.keep(state)

    def keep(self, state: FieldState):
        """Store a captured snapshot."""
        self.states.append(state)


def cfl_dt(state: FieldState | SpectralState, params: ModelParams,
           config: IntegratorConfig) -> float:
    """cfl_safety * h / max|u - mu grad ln rho|, with h the smallest grid
    spacing: the bound on the transport -((u - mu grad ln rho) . grad) w
    that the step leaves explicit once it takes mu Lap w implicitly (see
    ``model.tendency_hats``).  The pressure and, in ``original``, the alpha
    and capillary terms are explicit too and are not bounded here.  An empty
    bound is +inf; a result below dt_min raises StepUnderflow."""
    d = spectral_state(state, params)
    h = min(d.grid.spacing)
    speed = math.sqrt((d.transport ** 2).sum(axis=0).max())
    dt = config.cfl_safety * (math.inf if speed == 0.0 else h / speed)
    if dt < config.dt_min:
        raise StepUnderflow(
            f"CFL-limited dt {dt} fell below dt_min {config.dt_min}",
            required_dt=dt, time=d.time)
    return dt


# ---------------------------------------------------------------------------
# single-step kernels


@dataclass(frozen=True, slots=True)
class _Level:
    """Spectral history entry for the multistep scheme (rfft layout)."""

    time: float
    rho_hat: np.ndarray
    w_hat: np.ndarray          # (dim,) + rfft shape
    n_rho_hat: np.ndarray      # explicit density tendency
    f_w_hat: np.ndarray        # full velocity tendency
    dt_prev: float | None      # dt that produced this level from the one before


@dataclass(frozen=True, slots=True)
class RunState:
    """What a run carries from one accepted step to the next: the multistep
    history (newest level last), the newest report, whose
    ``serrin_accumulator`` is the running Serrin integral (None until ``run``
    evaluates the first), the next snapshot time (None without a cadence),
    and the accepted steps not reported yet, each as its SpectralState and
    the dt that made it.  ``run`` reports ``pending`` in one batch once it
    holds ``functionals.report_batch_size`` states, and when it stops."""

    levels: tuple[_Level, ...]
    report: FunctionalReport | None
    next_snap: float | None
    pending: tuple[tuple[SpectralState, float], ...] = ()


def rhs(d: SpectralState, forcing: ForcingFn | None) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side of the IMEX split, as rfft coefficients: the explicit
    density tendency (the (kappa/mu) Lap rho part is integrated exactly and
    left out) and the full velocity tendency, forcing included.  The
    forcing samples go forward in the tendencies' first forward stage."""
    if forcing is None:
        return tendency_hats(d)
    return tendency_hats(d, [np.asarray(f, dtype=float) for f in forcing(d.time)])


def _make_level(d: SpectralState, forcing: ForcingFn | None, dt_prev: float | None) -> _Level:
    return _Level(d.time, d.rho_hat, d.w_hat, *rhs(d, forcing), dt_prev)


def _phi1(z: np.ndarray) -> np.ndarray:
    out = np.ones_like(z)
    nz = z != 0.0
    out[nz] = np.expm1(z[nz]) / z[nz]
    return out


def _check_new_state(grid: SpectralGrid, rho_data: np.ndarray, w_data: np.ndarray,
                     t_new: float) -> FieldState:
    """The state of a step's samples, once they pass the checks.
    ``Stepper.probe`` makes the same checks on every rung of a ladder at
    once; the two must agree."""
    if not (np.isfinite(rho_data).all() and np.isfinite(w_data).all()):
        raise NonFinite(f"time step produced non-finite samples at t={t_new}", time=t_new)
    try:
        require_above_floor(rho_data)
    except NonpositiveDensity as exc:
        raise PositivityLoss(f"density reached {exc.value} at index {exc.location}, t={t_new}",
                             location=exc.location, time=t_new) from None
    return FieldState(ScalarField(grid, rho_data), VectorField(grid, w_data), time=t_new)


#: the most entries (array elements, a scalar weight counting one) that the
#: per-dt factor sets of one Stepper hold in all; the oldest sets go first,
#: the newest always stays.  A set holds three (imex_euler) or five
#: (imex_bdf2) coefficient arrays of the rfft half lattice: 99 or 170 entries
#: at 1D N = 64, 24,960 or 41,605 at 128^2.  2^16 (512 KB) keeps the BDF2 set
#: of a fixed-dt imex_bdf2 run up to 128^2 (there its Euler start set goes
#: when the BDF2 set comes) and the 25 rungs dt 2^-k of a 1D squeeze that
#: halves down to its dt_min, and caps a run whose dt the CFL bound sets step
#: by step, which makes a new set each step.
_FACTOR_CACHE_ENTRIES = 2 ** 16


def _factor_entries(factor_sets) -> int:
    """The entries that ``factor_sets`` hold, as ``_FACTOR_CACHE_ENTRIES``
    counts them."""
    return sum(np.size(f) for factors in factor_sets for f in factors)


def _euler_factors(rates: tuple[np.ndarray, np.ndarray], dt: float) -> tuple:
    """exp(z) and dt phi1(z) at z = -lam_rho dt, and the velocity's divisor
    1 + lam_w dt, of the split's ``rates`` (lam_rho, lam_w)."""
    lam_rho, lam_w = rates
    z = -lam_rho * dt
    return np.exp(z), dt * _phi1(z), 1.0 + lam_w * dt


def _advance_euler(level: _Level, factors: tuple, lam_w: np.ndarray,
                   dt) -> tuple[np.ndarray, np.ndarray]:
    """The new level's coefficients
    rho_hat = exp_z rho_hat + dt_phi1 n_rho_hat and
    w_hat = (w_hat + dt (f_w_hat + lam_w w_hat)) / w_divisor,
    each sum formed in place in its first term.  They broadcast over a
    leading rung axis of ``factors`` and ``dt`` (``_along_rungs``): no
    operand of an update in place has an axis that the array updated lacks."""
    exp_z, dt_phi1, w_divisor = factors
    rho_hat = exp_z * level.rho_hat
    rho_hat += dt_phi1 * level.n_rho_hat
    r_hat = lam_w * level.w_hat
    r_hat += level.f_w_hat
    w_hat = dt * r_hat
    w_hat += level.w_hat
    w_hat /= w_divisor
    return rho_hat, w_hat


def _bdf2_factors(rates: tuple[np.ndarray, np.ndarray], dt: float, dt_prev: float) -> tuple:
    """The variable-step BDF2 weights (a0, a1, a2, c1, c2) of dt after
    dt_prev, the density's integrating factors folded into them: -a1 e1,
    a2 e2, c1 e1 and c2 e2, with e1 = exp(-lam_rho dt) and
    e2 = exp(-lam_rho (dt + dt_prev)), and the velocity's divisor
    a0 + lam_w dt, of the split's ``rates`` (lam_rho, lam_w)."""
    lam_rho, lam_w = rates
    w_ratio = dt / dt_prev
    a0 = (1.0 + 2.0 * w_ratio) / (1.0 + w_ratio)
    a1 = -(1.0 + w_ratio)
    a2 = w_ratio ** 2 / (1.0 + w_ratio)
    c1 = 1.0 + w_ratio
    c2 = -w_ratio

    e1 = np.exp(-lam_rho * dt)
    e2 = np.exp(-lam_rho * (dt + dt_prev))
    return a0, a1, a2, c1, c2, -a1 * e1, a2 * e2, c1 * e1, c2 * e2, a0 + lam_w * dt


def _advance_bdf2(level_n: _Level, level_p: _Level, factors: tuple, lam_w: np.ndarray,
                  dt) -> tuple[np.ndarray, np.ndarray]:
    """The new level's coefficients, with r = f_w_hat + lam_w w_hat,
    rho_hat = (a1_e1 rho_hat_n - a2_e2 rho_hat_p
               + dt (c1_e1 n_rho_hat_n + c2_e2 n_rho_hat_p)) / a0 and
    w_hat = (-a1 w_hat_n - a2 w_hat_p + dt (c1 r_n + c2 r_p)) / w_divisor,
    formed in place as ``_advance_euler`` forms its own."""
    a0, a1, a2, c1, c2, a1_e1, a2_e2, c1_e1, c2_e2, w_divisor = factors
    rho_hat = a1_e1 * level_n.rho_hat
    rho_hat -= a2_e2 * level_p.rho_hat
    explicit = c1_e1 * level_n.n_rho_hat
    explicit += c2_e2 * level_p.n_rho_hat
    explicit *= dt
    rho_hat += explicit
    rho_hat /= a0

    r_n = lam_w * level_n.w_hat
    r_n += level_n.f_w_hat
    r_p = lam_w * level_p.w_hat
    r_p += level_p.f_w_hat
    explicit = c1 * r_n
    explicit += c2 * r_p
    w_hat = -a1 * level_n.w_hat
    w_hat -= a2 * level_p.w_hat
    explicit *= dt
    w_hat += explicit
    w_hat /= w_divisor
    return rho_hat, w_hat


def _along_rungs(values, dim: int) -> np.ndarray:
    """The values one factor (or dt) takes at each rung of a ladder, stacked
    on a leading rung axis and shaped to broadcast against rho_hat and the
    (dim,) + rfft-shape w_hat: a scalar as (rungs, 1, ..., 1), an rfft
    array as (rungs, 1) + its shape."""
    stacked = np.array(values)
    return stacked.reshape(stacked.shape[:1] + (1,) * (2 + dim - stacked.ndim)
                           + stacked.shape[1:])


class Stepper:
    """Stateful driver of one run; everything it carries between steps is the
    frozen ``run_state``.

    ``derived`` is the SpectralState of the current ``state``, a cache of the
    newest level: after a step it is built from that level's coefficients,
    so no step transforms rho and w forward again.  A step's first transform
    stage brings rho and w back for the positivity check; ``rhs`` then makes
    the tendencies' stages.  ``probe`` finds, for a step that failed, the
    largest of its halvings that passes, in one evaluation of them all.

    It computes the split's linear rates once (per run) and its factors once
    per dt and previous dt, into ``_factors``, which is its own and holds at
    most _FACTOR_CACHE_ENTRIES entries.  It holds ``workspace`` for its run:
    the temporaries of the report batches that ``run`` makes of its states
    are arrays of it, taken and given back by each batch in turn.  A step
    takes none of it (``_advance_euler``, ``model.tendency_hats``).
    """

    def __init__(self, state: FieldState, params: ModelParams, config: IntegratorConfig,
                 forcing: ForcingFn | None = None):
        self.params = params
        self.config = config
        self.forcing = forcing
        self.derived = spectral_state(state, params)
        # the linear rates of the split: the density's (kappa/mu) -Lap and
        # the velocity's mu -Lap
        ksq = -state.grid.rfft_minus_beta_sq
        self._rates = ((params.eps if params.variant != "original" else 0.0) * ksq,
                       params.mu * ksq)
        self._factors: dict[tuple[float, float | None], tuple] = {}
        self.workspace = Workspace()
        self.run_state = RunState(
            (_make_level(self.derived, forcing, None),),
            None, config.snapshot_interval)

    @property
    def state(self) -> FieldState:
        return self.derived.state

    def _factors_of(self, dt: float, dt_prev: float | None) -> tuple:
        """The split's factors for a step of dt (a BDF2 step after one of
        dt_prev; an Euler step when dt_prev is None), made on first use."""
        key = (dt, dt_prev)
        factors = self._factors.get(key)
        if factors is None:
            factors = self._factors[key] = (
                _euler_factors(self._rates, dt) if dt_prev is None
                else _bdf2_factors(self._rates, dt, dt_prev))
            held = _factor_entries(self._factors.values())
            while held > _FACTOR_CACHE_ENTRIES and len(self._factors) > 1:
                held -= _factor_entries([self._factors.pop(next(iter(self._factors)))])
        return factors

    def _step_hats(self, dt: float | list[float]) -> tuple[np.ndarray, np.ndarray]:
        """rho_hat and w_hat after a step of dt from the newest level, or
        after a step of each rung of the list ``dt``, along a leading axis."""
        levels = self.run_state.levels
        level = levels[-1]
        dt_prev = level.dt_prev if self.config.scheme == "imex_bdf2" and len(levels) == 2 else None
        if isinstance(dt, list):
            dim = self.derived.grid.dim
            factors = tuple(_along_rungs(values, dim)
                            for values in zip(*(self._factors_of(r, dt_prev) for r in dt)))
            dt = _along_rungs(dt, dim)
        else:
            factors = self._factors_of(dt, dt_prev)
        # a combination that overflows is NonFinite, which ``_check_new_state``
        # and the probe raise on its samples, not a numpy warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if dt_prev is None:
                return _advance_euler(level, factors, self._rates[1], dt)
            return _advance_bdf2(level, levels[0], factors, self._rates[1], dt)

    def advance(self, dt: float) -> FieldState:
        """One accepted step of size dt; raises PositivityLoss/NonFinite on
        failure without mutating the history."""
        if not (dt > 0.0):
            raise ValueError(f"dt must be positive, got {dt}")
        grid = self.derived.grid
        run_state = self.run_state
        level = run_state.levels[-1]
        rho_hat, w_hat = self._step_hats(dt)
        # grad w rides along only where it costs no call: a 2D grid inverts
        # it in the tendencies' stage, after the check
        rho, w, *grad_w = to_physical_stage(
            [rho_hat, w_hat] + ([grad_hat(w_hat, grid)] if grid.dim == 1 else []), grid)
        if grid.dim == 1:  # copies of the stage's views, so that a kept
            rho, w = rho.copy(), w.copy()  # state does not hold its whole array
        new_state = _check_new_state(grid, rho, w, level.time + dt)
        self.derived = d = SpectralState(new_state, self.params, rho_hat, w_hat)
        if grad_w:
            d.grad_w = grad_w[0]
        self.run_state = RunState(
            (level, _make_level(d, self.forcing, dt)),
            run_state.report, run_state.next_snap, run_state.pending)
        return new_state

    def probe(self, dt: float, dt_min: float) -> float:
        """The first of the rungs dt, dt/2, dt/4, ... (none below dt_min) at
        which ``advance`` would pass its checks, or the last rung when none
        would; the history is left as it is.

        On a 1D grid every rung is evaluated at once: the step kernels over a
        leading rung axis, the rungs' rho and w rows back in one call, and
        ``_check_new_state``'s checks (finite rho and w, rho above the
        floor) on each.  A rung's samples are those ``advance`` would make,
        bit for bit.  On a 2D grid, where a rung is a full-size transform,
        this is dt: there a run tries one rung per attempt, as ``_stage``
        makes one call per array."""
        grid = self.derived.grid
        rungs = [dt]
        while grid.dim == 1 and rungs[-1] * 0.5 >= dt_min:
            rungs.append(rungs[-1] * 0.5)
        if len(rungs) == 1:
            return dt
        rho_hat, w_hat = self._step_hats(rungs)
        samples = to_physical(np.concatenate((rho_hat, w_hat), axis=1), grid)
        passing = (np.isfinite(samples).reshape(len(rungs), -1).all(axis=1)
                   & (samples[:, 0].reshape(len(rungs), -1).min(axis=1) > RHO_FLOOR))
        first = np.flatnonzero(passing)
        return rungs[first[0] if first.size else -1]


def step(state: FieldState, params: ModelParams, config: IntegratorConfig,
         dt: float, forcing: ForcingFn | None = None) -> FieldState:
    """Single IMEX step from a bare state (multistep schemes bootstrap with
    imex_euler here; use run() for history-carrying integration)."""
    return Stepper(state, params, config, forcing).advance(dt)


# ---------------------------------------------------------------------------
# run loop


def run(initial: FieldState, params: ModelParams, config: IntegratorConfig,
        monitors: MonitorSpec | None = None, forcing: ForcingFn | None = None,
        trajectory: Trajectory | None = None) -> Trajectory:
    """Integrate to t_end (or to a numerical-breakdown signal).

    Deterministic for identical inputs.  Every accepted step appends a
    FunctionalReport; snapshots are captured interpolation-free at the state
    nearest each cadence target (every step when no cadence is set).  On
    PositivityLoss or NonFinite the step is retried with dt/2 down to dt_min,
    at the first of those halvings that ``Stepper.probe`` finds to pass (on
    a 2D grid, each in turn), or at the last when none does; the terminal
    error is re-raised with the partial trajectory attached.
    Results go into ``trajectory`` when one is given (a fresh Trajectory
    otherwise), which is returned.

    The initial report is made at once, so that a bad Serrin pair stops the
    run before its first step.  The others are made in batches
    (``evaluate_reports``): accepted steps wait in ``RunState.pending`` until
    they are ``functionals.report_batch_size`` states (the batch is
    reported once the next dt is known), and the run reports what is pending
    when it stops, however it stops, so every accepted step has its report.
    """
    monitors = monitors or MonitorSpec()
    if trajectory is None:
        trajectory = Trajectory(params=params)
    initial = FieldState(initial.rho, initial.w, time=0.0)
    trajectory.capture(initial)
    stepper = Stepper(initial, params, config, forcing)
    run_state = stepper.run_state
    stepper.run_state = RunState(run_state.levels,
                                 evaluate_report(stepper.derived, params, monitors),
                                 run_state.next_snap)
    trajectory.record(stepper.run_state.report)
    eps_end = 1e-12 * config.t_end
    per_batch = report_batch_size(initial.grid)

    try:
        while (last := stepper.state).time < config.t_end - eps_end:
            try:
                dt = min(config.dt_initial, config.t_end - last.time,
                         cfl_dt(stepper.derived, params, config) if config.adaptive
                         else math.inf)
                if len(stepper.run_state.pending) >= per_batch:
                    _report_pending(stepper, trajectory, monitors)
                while True:
                    try:
                        new_state = stepper.advance(dt)
                        break
                    except (PositivityLoss, NonFinite):
                        dt *= 0.5
                        if dt < config.dt_min:
                            raise
                        dt = stepper.probe(dt, config.dt_min)
            except (StepUnderflow, PositivityLoss, NonFinite) as exc:
                trajectory.terminated = TerminationInfo(type(exc).__name__, str(exc), last.time)
                exc.trajectory = trajectory
                raise
            next_snap = stepper.run_state.next_snap
            while next_snap is not None and new_state.time >= next_snap - eps_end:
                # the accepted state nearest the target; a tie goes to the later one
                trajectory.capture(min(new_state, last, key=lambda s: abs(s.time - next_snap)))
                next_snap += config.snapshot_interval
            if next_snap is None or new_state.time >= config.t_end - eps_end:
                trajectory.capture(new_state)
            run_state = stepper.run_state
            stepper.run_state = RunState(run_state.levels, run_state.report, next_snap,
                                         run_state.pending + ((stepper.derived, dt),))
    finally:
        _report_pending(stepper, trajectory, monitors)
    return trajectory


def _report_pending(stepper: Stepper, trajectory: Trajectory, monitors: MonitorSpec):
    """Report the accepted steps pending in ``stepper.run_state`` as one
    batch, continuing the Serrin trapezoid, and record them in
    ``trajectory``; the run state lets go of them first."""
    run_state = stepper.run_state
    if not run_state.pending:
        return
    states, dts = zip(*run_state.pending)
    reports = evaluate_reports(states, stepper.params, monitors,
                               previous=(run_state.report, dts), _workspace=stepper.workspace)
    stepper.run_state = RunState(run_state.levels, reports[-1], run_state.next_snap)
    trajectory.record(*reports)
