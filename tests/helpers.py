"""Shared oracles for the test suite.

Everything here is deliberately independent of the spectral code paths it
checks: finite differences use np.roll stencils, convolutions are explicit,
quadratures are dense classical rules.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import resource
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy.fft

from kortorus import cli, timestepping
from kortorus.config import parse_config
from kortorus.errors import KortorusError, NonFinite, PositivityLoss
from kortorus.functionals import MonitorSpec, evaluate_report, evaluate_reports
from kortorus.model import ModelParams, _evaluate_law, spectral_state
from kortorus.scenarios import initial_state, manufactured_solution
from kortorus.spectral import (
    ScalarField,
    SpectralGrid,
    TensorField,
    VectorField,
    dealias,
    gradient,
    hessian,
    laplacian,
    tensor_divergence,
)
from kortorus.timestepping import IntegratorConfig, Stepper

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def readme_blocks(language: str) -> list[str]:
    """The README's fenced code blocks in ``language``."""
    return re.findall(rf"```{language}\n(.*?)```", README, flags=re.DOTALL)


def fd4_derivative(data: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Fourth-order centered first derivative on a periodic axis."""
    def roll(s):
        return np.roll(data, -s, axis=axis)
    return (8.0 * (roll(1) - roll(-1)) - (roll(2) - roll(-2))) / (12.0 * h)


def fd4_second_derivative(data: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Fourth-order centered second derivative on a periodic axis."""
    def roll(s):
        return np.roll(data, -s, axis=axis)
    return (-roll(2) + 16.0 * roll(1) - 30.0 * data + 16.0 * roll(-1)
            - roll(-2)) / (12.0 * h * h)


def fd4_gradient(field: ScalarField) -> np.ndarray:
    grid = field.grid
    return np.stack([fd4_derivative(field.data, ax, grid.spacing[ax])
                     for ax in range(grid.dim)])


def fd4_laplacian(field: ScalarField) -> np.ndarray:
    grid = field.grid
    return sum(fd4_second_derivative(field.data, ax, grid.spacing[ax])
               for ax in range(grid.dim))


def circular_convolution_coeffs(a_hat: np.ndarray, b_hat: np.ndarray) -> np.ndarray:
    """Exact (non-aliased) product spectrum of two 1-D coefficient arrays in
    FFT layout, truncated back to the same layout.

    With fftshift the entry j holds wavenumber k = j - n//2, so the full
    linear convolution index p = j1 + j2 holds the wavenumber sum p - n.
    """
    n = a_hat.size
    full = np.convolve(np.fft.fftshift(a_hat), np.fft.fftshift(b_hat))
    keep = np.zeros(n, dtype=complex)
    for i in range(n):
        k = i if i < n // 2 else i - n
        keep[i] = full[k + n]
    return keep


def dense_quadrature_1d(fn, length: float, n: int = 2 ** 20) -> float:
    """Rectangle rule on a dense grid, for oracles on [0, length)."""
    x = np.arange(n) * (length / n)
    return float(np.mean(fn(x)) * length)


def measure(count: dict, fn) -> dict:
    """What ``fn()`` adds to the ``fft_count`` fixture's calls and points, and
    the widest leading batch of its calls over two axes (0 if none)."""
    calls, points = count["calls"], count["points"]
    count["widest_2d"] = 0
    fn()
    return {"calls": count["calls"] - calls, "points": count["points"] - points,
            "widest_2d": count["widest_2d"]}


#: the model and the ``random_smooth`` parameters of the ``evolve2d``
#: benchmark workload
EVOLVE2D_PARAMS = ModelParams(mu=0.1, alpha=0.0, kappa=0.01, a=1.0, gamma=2.0,
                              variant="effective_v2")
EVOLVE2D_INITIAL = {"mean": 1.2, "amplitude": 0.25, "velocity_amplitude": 0.3}


def read_snapshots(trajdir: Path) -> list:
    """Every snapshot ``simulate`` stored under ``trajdir``, in index order,
    as the SpectralStates of its echoed model."""
    model = parse_config((trajdir / "config.echo.json").read_text()).model
    snapdir, entries = cli._snapshot_entries(trajdir)
    return [cli._read_snapshot(snapdir, entry, model) for entry in entries]


def _evolve2d_stepper(resolution: int, seed: int) -> Stepper:
    """A Stepper of the ``evolve2d`` benchmark workload's model and initial
    parameters on a ``resolution``^2 grid, from the ``random_smooth`` state
    of ``seed``, with imex_bdf2 steps."""
    grid = SpectralGrid((resolution, resolution))
    state = initial_state(grid, "random_smooth", EVOLVE2D_INITIAL, seed=seed)
    return Stepper(state, EVOLVE2D_PARAMS, IntegratorConfig(dt_initial=1e-3, dt_min=1e-9,
                                                            t_end=1.0, scheme="imex_bdf2"))


def report_peak_mb(resolution: int, steps: int, seed: int) -> float:
    """The traced-memory (``tracemalloc``) peak of one ``evaluate_report``, in
    MB above what was traced before it, on the state a ``Stepper`` holds
    after ``steps`` imex_bdf2 steps of dt 1e-3 on a ``resolution``^2 grid.
    The run starts from the ``random_smooth`` state of ``seed`` and has the
    model and initial parameters of the ``evolve2d`` benchmark workload.

    An untraced report of the initial state comes first, so that the caches
    numpy and scipy fill on a first report (about 1 KB) are full whatever
    ran before in the process; it is made on a SpectralState of its own, so
    that the traced report still computes every field it needs."""
    stepper = _evolve2d_stepper(resolution, seed)
    params = stepper.params
    evaluate_report(spectral_state(stepper.state, params), params)
    for _ in range(steps):
        stepper.advance(1e-3)
    tracemalloc.start()
    try:
        evaluate_report(stepper.derived, params)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def step_report_peak_mb(resolution: int, steps: int, seed: int) -> tuple[float, float]:
    """The traced-memory peaks of one imex_bdf2 step of dt 1e-3 and of the
    report of the state it makes, each in MB above what was traced before
    it, as ``run`` makes them: on the Stepper of ``report_peak_mb`` after
    ``steps`` steps, each reported.  The peaks count every temporary of
    the step and the report, the transforms' outputs and the fields the
    new state holds."""
    stepper = _evolve2d_stepper(resolution, seed)
    params = stepper.params
    for _ in range(steps):
        stepper.advance(1e-3)
        evaluate_reports([stepper.derived], params)
    tracemalloc.start()
    try:
        stepper.advance(1e-3)
        step = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        evaluate_reports([stepper.derived], params)
        return step / 1e6, (tracemalloc.get_traced_memory()[1] - before) / 1e6
    finally:
        tracemalloc.stop()


def run_peak_mb(resolution: int, steps: int, seed: int) -> float:
    """The traced-memory (``tracemalloc``) peak of one ``run`` of ``steps``
    imex_bdf2 steps of dt 1e-3 on a ``resolution``^2 grid, in MB above what
    was traced before it, with the model and initial parameters of the
    ``evolve2d`` benchmark workload from the ``random_smooth`` state of
    ``seed``.  The peak counts every step and report of the run, the fields
    its Stepper holds between them, the states its trajectory keeps and the
    tables its grid caches: the traced run's initial state is made before
    the trace on a grid of its own.  An untraced run of the same on another
    grid comes first, so that the caches numpy and scipy fill on a first run
    are full whatever ran before in the process."""
    def initial():
        return initial_state(SpectralGrid((resolution, resolution)), "random_smooth",
                             EVOLVE2D_INITIAL, seed=seed)
    config = IntegratorConfig(dt_initial=1e-3, dt_min=1e-9, t_end=steps * 1e-3,
                              scheme="imex_bdf2", adaptive=False)
    timestepping.run(initial(), EVOLVE2D_PARAMS, config)
    state = initial()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        timestepping.run(state, EVOLVE2D_PARAMS, config)
        return (tracemalloc.get_traced_memory()[1] - before) / 1e6
    finally:
        tracemalloc.stop()


def advance_us(params: ModelParams, resolution, steps: int, repeats: int) -> float:
    """The fastest of ``repeats`` timings of ``steps`` imex_bdf2
    ``Stepper.advance`` calls of dt 1e-3, in µs a call.  Each timing takes
    a fresh Stepper of ``params`` from the ``random_smooth`` state of seed 0
    with the ``evolve2d`` workload's initial parameters on a ``resolution``
    grid, and covers the calls alone."""
    state = initial_state(SpectralGrid(resolution), "random_smooth", EVOLVE2D_INITIAL, seed=0)
    config = IntegratorConfig(dt_initial=1e-3, dt_min=1e-9, t_end=1.0, scheme="imex_bdf2")
    best = float("inf")
    for _ in range(repeats):
        stepper = Stepper(state, params, config)
        start = time.perf_counter()
        for _ in range(steps):
            stepper.advance(1e-3)
        best = min(best, time.perf_counter() - start)
    return best / steps * 1e6


def simulate_minor_faults(config_path, runs: int) -> list[tuple[int, float]]:
    """Minor page faults and wall seconds of each of ``runs`` in-process
    ``kortorus simulate`` runs of ``config_path`` (``getrusage`` of this
    process), after one untimed run, each into a fresh output directory.
    The counts are how often the runs touched memory the process did not
    hold: allocations that the heap serves from pages it gave back.  Run
    it in a process of its own, as a run's faults depend on what the heap
    held when it started.  Faults of other threads of the process count
    too; numpy and scipy start none here with one BLAS thread."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(runs + 1):
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["simulate", str(config_path), "--output", f"{tmp}/run{i}"])
            out.append((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults,
                        time.perf_counter() - start))
    return out[1:]


#: the model, monitors and controller of the vacuum-squeeze sweep of the
#: ``study1d`` benchmark workload (acceptance criterion 11)
SQUEEZE_PARAMS = ModelParams(mu=0.05, alpha=0.0, kappa=0.05 ** 2, a=0.01, gamma=2.0,
                             variant="effective_v2")
SQUEEZE_MONITORS = MonitorSpec(epsilon=0.75, delta_vacuum=0.25)
SQUEEZE_CONFIG = IntegratorConfig(dt_initial=2e-3, dt_min=1e-10, t_end=3.0, cfl_safety=0.5)


def squeeze_state(index: int):
    """The ``index``-th initial state of the ``study1d`` squeeze sweep: a
    seeded gaussian bump with an outflow, on a 1D N = 64 grid."""
    rng = np.random.default_rng(2000 + index)
    spec = {"mean": 1.0,
            "depth": 0.90 + 0.06 * rng.uniform(),
            "width": 0.45 + 0.15 * rng.uniform(),
            "center": [0.25 + 0.5 * rng.uniform()],
            "velocity_amplitude": 2.6 + 0.5 * rng.uniform()}
    return initial_state(SpectralGrid(64), "gaussian_bump", spec)


def squeeze_run(index: int = 0) -> timestepping.Trajectory:
    """The trajectory of one ``run`` of ``squeeze_state(index)`` under the
    squeeze sweep's model, monitors and controller (the run
    ``squeeze_attempts`` counts), however the run ended."""
    try:
        return timestepping.run(squeeze_state(index), SQUEEZE_PARAMS, SQUEEZE_CONFIG,
                                SQUEEZE_MONITORS)
    except KortorusError as exc:
        return exc.trajectory


def ms1d_run(scheme: str, steps: int) -> timestepping.Trajectory:
    """One run of the ``study1d`` benchmark workload's ms1d convergence
    study: the manufactured solution ms1d at 1D N = 64 to t = 0.4, in
    ``steps`` fixed steps of ``scheme``."""
    params = ModelParams(mu=1.0, alpha=0.0, kappa=1.0, a=1.0, gamma=2.0,
                         variant="effective_v2")
    ms, grid = manufactured_solution("ms1d"), SpectralGrid(64)
    config = IntegratorConfig(dt_initial=0.4 / steps, dt_min=1e-12, t_end=0.4, scheme=scheme,
                              adaptive=False)
    return timestepping.run(ms.state(grid, 0.0), params, config, forcing=ms.forcing(grid, params))


def report_digest(reports) -> str:
    """The sha256 of the rows that ``cli._write_csv`` writes of the report
    table ``reports``, without the header: the bits of every column as
    ``functionals.csv`` holds them."""
    out = io.StringIO()
    cli._write_csv(out, reports, header=False)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def kept_bytes(resolution: int, steps: int) -> float:
    """The traced-memory (``tracemalloc``) bytes that one fixed-dt
    ``run`` without a cadence holds per kept state and its report, once it
    returns: what the trajectory it returns adds to the traced memory,
    divided by its states.  The run is of the ``evolve2d`` benchmark
    workload's model and initial parameters, from the ``random_smooth``
    state of seed 3 on a 1D ``resolution`` grid, ``steps`` imex_euler steps
    of dt 1e-3.  A short untraced run comes first, so that the caches a
    first run fills are full."""
    state = initial_state(SpectralGrid(resolution), "random_smooth", EVOLVE2D_INITIAL, seed=3)
    timestepping.run(state, EVOLVE2D_PARAMS, IntegratorConfig(dt_initial=1e-3, dt_min=1e-9,
                                                              t_end=3e-3, adaptive=False))
    config = IntegratorConfig(dt_initial=1e-3, dt_min=1e-9, t_end=steps * 1e-3, adaptive=False)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trajectory = timestepping.run(state, EVOLVE2D_PARAMS, config)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trajectory.states) == len(trajectory.reports) == steps + 1
    return held / len(trajectory.states)


#: the forward and inverse entry points of ``numpy.fft`` and ``scipy.fft``
#: that the FFT counters wrap
FFT_ENTRY_POINTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                    "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


def squeeze_attempts(index: int = 0) -> dict:
    """What one ``run`` of ``squeeze_state(index)`` under the squeeze sweep's
    model and monitors does, as counts that no host changes: its
    ``Stepper.advance`` calls and the rejected ones among them, its
    ``Stepper.probe`` calls, its calls of the ``numpy.fft`` and
    ``scipy.fft`` entry points and those made inside the probes, and how
    the run ended (the type of the error that ended it, or None)."""
    count = dict(advance=0, rejected=0, probe=0, fft=0, probe_fft=0)
    saved = [(Stepper, name, getattr(Stepper, name)) for name in ("advance", "probe")]
    saved += [(module, name, getattr(module, name)) for module in (np.fft, scipy.fft)
              for name in FFT_ENTRY_POINTS if hasattr(module, name)]
    advance, probe = saved[0][2], saved[1][2]

    def counted_advance(self, dt):
        count["advance"] += 1
        try:
            return advance(self, dt)
        except (PositivityLoss, NonFinite):
            count["rejected"] += 1
            raise

    def counted_probe(self, dt, dt_min):
        count["probe"] += 1
        calls = count["fft"]
        try:
            return probe(self, dt, dt_min)
        finally:
            count["probe_fft"] += count["fft"] - calls

    def counted_fft(fn):
        def counted(*args, **kwargs):
            count["fft"] += 1
            return fn(*args, **kwargs)
        return counted

    Stepper.advance, Stepper.probe = counted_advance, counted_probe
    for module, name, fn in saved[2:]:
        setattr(module, name, counted_fft(fn))
    try:
        timestepping.run(squeeze_state(index), SQUEEZE_PARAMS, SQUEEZE_CONFIG, SQUEEZE_MONITORS)
        count["ended_by"] = None
    except (PositivityLoss, NonFinite) as exc:
        count["ended_by"] = type(exc)
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)
    return count


def max_abs(a) -> float:
    return float(np.max(np.abs(a)))


def rel_linf(a, b) -> float:
    scale = max(max_abs(a), max_abs(b), 1e-300)
    return max_abs(np.asarray(a) - np.asarray(b)) / scale


class _ComplexFFT:
    """Spectral operators of a grid built from numpy.fft and the grid's
    resolution and length only, none of the package's spectral tables or
    operators: one complex FFT pair per operator."""

    def __init__(self, grid):
        d = grid.dim
        self.ks, self.keep = [], np.ones(grid.shape, dtype=bool)
        for axis, (n, length) in enumerate(zip(grid.resolution, grid.length)):
            shape = [1] * d
            shape[axis] = n
            k = np.fft.fftfreq(n, d=1.0 / n)
            self.keep &= (np.abs(k) <= n // 3).reshape(shape)
            k[n // 2] = 0.0
            self.ks.append((k * (2.0 * np.pi / length)).reshape(shape))

    @staticmethod
    def real_ifft(hat):
        return np.fft.ifftn(hat).real

    def deriv(self, f, i):
        return self.real_ifft(1j * self.ks[i] * np.fft.fftn(f))

    def hessian(self, f):  # H[i][j] = d_i d_j f
        f_hat = np.fft.fftn(f)
        return [[self.real_ifft(-ki * kj * f_hat) for kj in self.ks] for ki in self.ks]

    def laplacian(self, f):
        return self.real_ifft(-sum(k * k for k in self.ks) * np.fft.fftn(f))

    def dealias(self, f):
        return self.real_ifft(self.keep * np.fft.fftn(f))

    def density_tendency(self, rho, w, params):
        """-div dealias(rho w), plus (kappa/mu) Lap rho in the effective variants."""
        drho = -sum(self.deriv(self.dealias(rho * w[i]), i) for i in range(len(w)))
        if params.variant == "original":
            return drho
        return drho + params.kappa / params.mu * self.laplacian(rho)


def reference_rhs(rho: np.ndarray, w: np.ndarray, grid, params) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side assembled with a complex FFT pair per operator, in the
    conservative form of the model equations: every product dealiased on its
    own by a physical -> spectral -> physical round trip, then
    differentiated, and the stress divergence div(rho T) divided by rho.

    The package assembles the velocity tendency per unit mass instead
    (``reference_rhs_per_unit_mass``); the two differ by truncation error."""
    ops = _ComplexFFT(grid)
    deriv, dealias = ops.deriv, ops.dealias
    d = grid.dim

    def div_rho(T):  # component j = sum_i d_i dealias(rho T_ij)
        return np.stack([sum(deriv(dealias(rho * T[i][j]), i) for i in range(d))
                         for j in range(d)])

    ln_rho = np.log(rho)
    eps = params.kappa / params.mu
    original = params.variant == "original"
    u = w if original else w - eps * np.stack([deriv(ln_rho, i) for i in range(d)])
    drho = ops.density_tendency(rho, w, params)

    G = [[deriv(w[j], i) for j in range(d)] for i in range(d)]  # G[i][j] = d_i w_j
    force = params.mu * div_rho(G)
    if original:
        force = force + params.alpha * div_rho([list(row) for row in zip(*G)])
        force = force + params.kappa * div_rho(ops.hessian(ln_rho))
    p = params.a * rho ** params.gamma
    force = force - np.stack([deriv(p, j) for j in range(d)])
    advect = np.stack([dealias(sum(u[i] * G[i][j] for i in range(d))) for j in range(d)])
    return drho, -advect + np.stack([dealias(f / rho) for f in force])


def reference_rhs_per_unit_mass(rho: np.ndarray, w: np.ndarray, grid,
                                params) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side assembled with a complex FFT pair per operator, the
    velocity tendency in the per-unit-mass form that ``model.tendency_hats``
    derives: with g = grad ln rho, G_ij = d_i w_j and H_ij = d_i d_j ln rho,

        d_t w_j = mu Lap w_j - sum_i (u_i - mu g_i) G_ij - a gamma rho^(gamma-1) g_j
                  + alpha (d_j div w + sum_i G_ji g_i)               (original)
                  + kappa (d_j Lap ln rho + sum_i H_ij g_i),         (original)

    each operator applied to physical samples and the whole tendency but
    its linear diffusion mu Lap w dealiased once by a round trip: the
    diffusion acts on every mode, as the step integrates it.  The density
    tendency is ``reference_rhs``'s, whose (kappa/mu) Lap rho acts on every
    mode too."""
    ops = _ComplexFFT(grid)
    deriv = ops.deriv
    d = grid.dim
    ln_rho = np.log(rho)
    original = params.variant == "original"
    g = [deriv(ln_rho, i) for i in range(d)]
    G = [[deriv(w[j], i) for j in range(d)] for i in range(d)]
    u = w if original else [w[i] - params.kappa / params.mu * g[i] for i in range(d)]
    sound = params.a * params.gamma * rho ** (params.gamma - 1.0)
    if original:
        div_w = sum(G[i][i] for i in range(d))
        H = ops.hessian(ln_rho)
        lap_ln_rho = ops.laplacian(ln_rho)
    dw = []
    for j in range(d):
        term = -sum((u[i] - params.mu * g[i]) * G[i][j] for i in range(d)) - sound * g[j]
        if original:
            term = (term + params.alpha * (deriv(div_w, j) + sum(G[j][i] * g[i] for i in range(d)))
                    + params.kappa * (deriv(lap_ln_rho, j) + sum(H[i][j] * g[i] for i in range(d))))
        dw.append(params.mu * ops.laplacian(w[j]) + ops.dealias(term))
    return ops.density_tendency(rho, w, params), np.stack(dw)


def quartic_direct_einsum(v: np.ndarray, grad_v: np.ndarray) -> np.ndarray:
    """The literal quadruple sum sum_{ijk} v_j v_k d_i v_j d_i v_k, with
    grad_v[i, j] = d_i v_j."""
    return np.einsum("j...,k...,ij...,ik...->...", v, v, grad_v, grad_v)


def korteweg_div_general_round_trip(rho: ScalarField, law) -> VectorField:
    """div K for a coefficient law k(rho), each product dealiased by a
    physical -> spectral -> physical round trip before it is differentiated
    by the package's field operators."""
    grid = rho.grid
    kval, kprime = _evaluate_law(law, rho.data)
    grad_rho = gradient(rho).data
    lap_rho = laplacian(rho).data
    grad_sq = np.sum(grad_rho ** 2, axis=0)
    scalar_part = rho.data * kval * lap_rho + 0.5 * (kval + rho.data * kprime) * grad_sq
    term1 = gradient(dealias(ScalarField(grid, scalar_part)))
    tensor = kval * grad_rho[:, None] * grad_rho[None]
    term2 = tensor_divergence(dealias(TensorField(grid, tensor)))
    return VectorField(grid, term1.data - term2.data)


def korteweg_div_special_round_trip(rho: ScalarField, kappa: float) -> VectorField:
    """kappa * sum_i d_i(rho d_i d_j ln rho), the product dealiased by a round
    trip before it is differentiated."""
    grid = rho.grid
    hess = hessian(ScalarField(grid, np.log(rho.data))).data
    div = tensor_divergence(dealias(TensorField(grid, rho.data * hess)))
    return VectorField(grid, kappa * div.data)
