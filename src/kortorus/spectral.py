"""Discrete calculus on the periodic torus T^N (N = 1 or 2).

Fields are sampled on a uniform grid and differentiated in Fourier space:
a mode e^{i beta.x} picks up the multiplier (i beta_j) per axis, so
derivatives of trigonometric polynomials under the Nyquist limit are exact
to roundoff.  Conventions:

* coefficients follow u(x) = sum_beta u_hat(beta) e^{i beta.x} with
  u_hat(beta) = (1/|T^N|) \\int e^{-i beta.y} u(y) dy, realized by the DFT,
* the Nyquist mode is zeroed in every derivative multiplier (odd-order
  derivatives are ill-defined there),
* quadrature is the rectangle rule, i.e. spectral mean times volume, exact
  for trigonometric polynomials under the Nyquist limit,
* dealiasing is the 2/3 rule: after a nonlinear product, every coefficient
  with any |k_j| above floor(n_j/3) is zeroed,
* operators work on rfft coefficients (real samples have Hermitian spectra,
  so the last axis keeps only k = 0..n/2), through the one transform pair
  ``to_spectral``/``to_physical``, batched over component axes; the
  ``rfft_*`` tables of SpectralGrid and the dyadic tables are in that
  layout.  The full FFT layout stays in ``forward_transform``/
  ``inverse_transform`` (public normalized coefficients), ``beta_axes``/
  ``beta_magnitude`` (the lattice the dyadic tables take their half of),
  and in two independent references: the Sobolev-weight norm and the
  seeded random-spectrum corpora, whose samples must not move.

Resolutions are powers of two so dyadic frequency shells align with
representable wavenumbers.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np
import scipy.fft

from .errors import InvalidField, require

TAU = 2.0 * math.pi

#: the torus dimensions that a grid, a field dump and a Serrin pair may have
DIMENSIONS = (1, 2)

_MIN_RESOLUTION = 8


def _as_tuple(value, n=None, kind=float):
    if np.isscalar(value):
        value = (value,) if n is None else (value,) * n
    out = tuple(kind(v) for v in value)
    return out


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform periodic grid with its wavenumber lattice and transform helpers.

    ``resolution`` is the number of samples per axis (power of two, >= 8),
    ``length`` the period per axis (default 2*pi).  The dual lattice carries
    wavenumbers beta_j = 2*pi*k_j/L_j in FFT ordering; it is symmetric
    (beta present implies -beta present) except for the Nyquist mode, which
    derivative multipliers zero.

    Instances are immutable; the cached multiplier tables are safe to share
    between threads once constructed.  A grid that breaks its constraints
    raises one ConstraintViolationError (a ValueError) listing all of them.
    """

    resolution: tuple[int, ...]
    length: tuple[float, ...]

    def __init__(self, resolution, length=None):
        res = _as_tuple(resolution, kind=int)
        if length is None:
            length = TAU
        len_ = _as_tuple(length, n=len(res), kind=float)
        require(
            (len(res) in DIMENSIONS,
             f"grid dimension must be one of {DIMENSIONS}, got {len(res)}"),
            (len(len_) == len(res), f"grid.length must have one entry per axis of "
                                    f"grid.resolution ({len(res)}), got {len(len_)}"),
            *((n >= _MIN_RESOLUTION and _is_power_of_two(n),
               f"grid resolution entries must be powers of two >= {_MIN_RESOLUTION}, "
               f"got {n}") for n in res),
            *((L > 0.0, f"grid lengths must be positive, got {L}") for L in len_))
        object.__setattr__(self, "resolution", res)
        object.__setattr__(self, "length", len_)

    @cached_property
    def dim(self) -> int:
        return len(self.resolution)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.resolution

    @cached_property
    def volume(self) -> float:
        return float(np.prod(self.length))

    @cached_property
    def cell_volume(self) -> float:
        return self.volume / float(np.prod(self.resolution))

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.length, self.resolution))

    def axes(self) -> list[np.ndarray]:
        """Sample coordinates per axis, [0, L) with n points."""
        return [np.arange(n) * (L / n) for n, L in zip(self.resolution, self.length)]

    def meshgrid(self) -> list[np.ndarray]:
        return list(np.meshgrid(*self.axes(), indexing="ij"))

    def _broadcast_axis(self, arr: np.ndarray, axis: int) -> np.ndarray:
        shape = [1] * self.dim
        shape[axis] = self.resolution[axis]
        return arr.reshape(shape)

    @cached_property
    def beta_axes(self) -> list[np.ndarray]:
        """Raw wavenumbers per axis in FFT order, broadcast-ready."""
        out = []
        for axis, (n, L) in enumerate(zip(self.resolution, self.length)):
            k = np.fft.fftfreq(n, d=1.0 / n)  # integer indices
            out.append(self._broadcast_axis(k * (TAU / L), axis))
        return out

    @cached_property
    def beta_magnitude(self) -> np.ndarray:
        """|beta| over the full lattice (Nyquist included); the dyadic shells
        tabulate on its rfft half, ``[..., :n_last // 2 + 1]``."""
        total = np.zeros(self.shape)
        for b in self.beta_axes:
            total = total + b * b
        return np.sqrt(total)

    # -- rfft layout: the last axis keeps k = 0..n/2, the others are full --

    @cached_property
    def rfft_axes(self) -> tuple[int, ...]:
        return tuple(range(-self.dim, 0))

    @cached_property
    def rfft_shape(self) -> tuple[int, ...]:
        return self.shape[:-1] + (self.shape[-1] // 2 + 1,)

    def _rfft_index(self, axis: int) -> np.ndarray:
        """Integer wavenumbers of one axis in rfft layout, broadcast-ready."""
        n = self.resolution[axis]
        k = np.fft.rfftfreq(n, d=1.0 / n) if axis == self.dim - 1 else np.fft.fftfreq(n, d=1.0 / n)
        shape = [1] * self.dim
        shape[axis] = k.size
        return k.reshape(shape)

    @cached_property
    def rfft_ik(self) -> np.ndarray:
        """Derivative multipliers i beta_j, Nyquist zeroed; shape (dim,) + rfft_shape."""
        out = np.zeros((self.dim,) + self.rfft_shape, dtype=complex)
        for axis, (n, L) in enumerate(zip(self.resolution, self.length)):
            k = self._rfft_index(axis).copy()
            k.flat[n // 2] = 0.0
            out[axis] = 1j * k * (TAU / L)
        return out

    @cached_property
    def rfft_minus_beta_sq(self) -> np.ndarray:
        """Laplacian multiplier -|beta|^2 (Nyquist-zeroed, so it equals div o grad)."""
        return -np.sum(self.rfft_ik.imag ** 2, axis=0)

    @cached_property
    def rfft_multiplicity(self) -> np.ndarray:
        """How many points of the full lattice each rfft coefficient stands
        for: 1 on the k_last = 0 and Nyquist columns, which the half lattice
        holds alone, and 2 elsewhere (k and its conjugate -k)."""
        weight = np.full(self.rfft_shape, 2.0)
        weight[..., 0] = weight[..., -1] = 1.0
        return weight

    @cached_property
    def rfft_dealias_keep(self) -> np.ndarray:
        """Mask of modes kept by the 2/3 rule (|k_j| <= floor(n_j/3)), as
        complex ones and zeros: a boolean mask would be cast to complex in
        every product with coefficients, to these same values."""
        keep = np.ones(self.rfft_shape, dtype=bool)
        for axis, n in enumerate(self.resolution):
            keep = keep & (np.abs(self._rfft_index(axis)) <= n // 3)
        return keep.astype(complex)

    def scalar(self, data) -> "ScalarField":
        return ScalarField(self, data)

    def zeros(self) -> "ScalarField":
        return ScalarField(self, np.zeros(self.shape))

    def zero_vector(self) -> "VectorField":
        return VectorField(self, np.zeros((self.dim,) + self.shape))

    def constant(self, value: float) -> "ScalarField":
        return ScalarField(self, np.full(self.shape, float(value)))

    def from_function(self, fn) -> "ScalarField":
        """Sample ``fn(*coords)`` on the grid."""
        return ScalarField(self, np.asarray(fn(*self.meshgrid()), dtype=float))


@dataclass(frozen=True, eq=False, slots=True)
class _Samples:
    """Real samples on a SpectralGrid: ``rank`` component axes of length
    grid.dim, then the grid axes (row-major axis order)."""

    grid: SpectralGrid
    data: np.ndarray
    rank: ClassVar[int]

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        expected = (self.grid.dim,) * self.rank + self.grid.shape
        if data.shape != expected:
            raise InvalidField(
                f"sample array has shape {data.shape}, expected {expected}")
        object.__setattr__(self, "data", data)

    def with_data(self, data):
        return type(self)(self.grid, data)


@dataclass(frozen=True, eq=False, slots=True)
class ScalarField(_Samples):
    """Real rank-0 samples on a SpectralGrid (row-major axis order)."""

    rank = 0


@dataclass(frozen=True, eq=False, slots=True)
class VectorField(_Samples):
    """Real rank-1 samples, component-major: data[j] is the j-th component."""

    rank = 1

    def component(self, j: int) -> ScalarField:
        return ScalarField(self.grid, self.data[j])


@dataclass(frozen=True, eq=False, slots=True)
class TensorField(_Samples):
    """Real rank-2 samples, data[i, j] holds component T_ij."""

    rank = 2


Field = ScalarField | VectorField | TensorField


def _require_finite(data: np.ndarray):
    if not np.all(np.isfinite(data)):
        raise InvalidField("field contains non-finite samples")


# ---------------------------------------------------------------------------
# transforms


def to_spectral(data: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Unnormalized rfft coefficients of real samples over the grid axes; any
    leading axes are components, transformed together in one call.

    This and ``to_physical`` are the transforms behind every operator.  A 1D
    grid goes through ``numpy.fft.rfft``, which gives the same coefficients
    as ``scipy.fft.rfftn`` over the last axis, each row as from a call of its
    own, at about scipy's per-call cost (numpy's ``irfft`` costs less than
    scipy's); a 2D grid through ``scipy.fft.rfftn``."""
    if grid.dim == 1:
        return np.fft.rfft(data)
    return scipy.fft.rfftn(data, axes=grid.rfft_axes)


def to_physical(hat: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Inverse of ``to_spectral``, batched the same way."""
    if grid.dim == 1:
        return np.fft.irfft(hat, n=grid.shape[0])
    return scipy.fft.irfftn(hat, s=grid.shape, axes=grid.rfft_axes)


def _stage(transform, arrays, grid: SpectralGrid):
    """``transform`` of each array of one dependency stage, as an iterator
    over the outputs in order.  On a 1D grid the arrays are stacked row by
    row into one call, where a call costs about the same for 1 row or 8, and
    each array's part of the output is a view of its rows, reshaped to the
    array's component axes.  On a 2D grid, where wider batches cost more per
    component (see README), the stage is lazy: one call each, made when its
    output is asked for, taking each array just then and letting it go once
    transformed, so that an array that only the stage holds is freed before
    the next is formed, and an output that its reader lets go before it
    asks for the next is freed before the next is made.  Its reader must
    take every output, or the calls it leaves are not made."""
    if grid.dim != 1:
        return map(transform, arrays, itertools.repeat(grid))
    arrays = list(arrays)
    if len(arrays) < 2:
        return iter([transform(a, grid) for a in arrays])
    out = transform(np.concatenate([a.reshape(-1, a.shape[-1]) for a in arrays]), grid)
    parts, start = [], 0
    for a in arrays:
        stop = start + a.size // a.shape[-1]
        parts.append(out[start:stop].reshape(a.shape[:-1] + out.shape[-1:]))
        start = stop
    return iter(parts)


def to_spectral_stage(arrays, grid: SpectralGrid) -> Iterator[np.ndarray]:
    """``to_spectral`` of each of ``arrays`` as one stage (``_stage``)."""
    return _stage(to_spectral, arrays, grid)


def to_physical_stage(hats, grid: SpectralGrid) -> Iterator[np.ndarray]:
    """``to_physical`` of each of ``hats`` as one stage (``_stage``)."""
    return _stage(to_physical, hats, grid)


def grad_hat(hat: np.ndarray, grid: SpectralGrid, out: np.ndarray | None = None) -> np.ndarray:
    """Coefficients of the derivatives d_i, with the axis i prepended; into
    ``out`` when given."""
    if grid.dim == 1:
        if out is None:
            return (grid.rfft_ik[0] * hat)[None]
        np.multiply(grid.rfft_ik[0], hat, out=out[0])
        return out
    ik = grid.rfft_ik.reshape((grid.dim,) + (1,) * (hat.ndim - grid.dim) + grid.rfft_shape)
    return np.multiply(ik, hat, out=out)


def hess_hat(hat: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Coefficients of the second derivatives d_i d_j (multiplier -beta_i
    beta_j), with the axes i, j prepended, as ``grad_hat`` prepends i.  The
    multipliers ik_i * ik_j (rows of ``rfft_ik``) are formed in the output
    and multiplied by ``hat`` there, so no table of them is held or made."""
    ik = grid.rfft_ik.reshape((grid.dim,) + (1,) * (hat.ndim - grid.dim) + grid.rfft_shape)
    out = np.empty((grid.dim, grid.dim) + hat.shape, complex)
    np.multiply(ik[:, None], ik[None], out=out)
    out *= hat
    return out


def div_hat(hat: np.ndarray, grid: SpectralGrid, terms: np.ndarray | None = None) -> np.ndarray:
    """Coefficients of sum_i d_i over the first component axis i, the terms
    formed in ``terms`` (an array of ``hat``'s shape, ``hat`` itself say)
    when given.  On a 1D grid that is its one term, added to +0 as the sum
    would (so -0.0 parts come out +0.0, bit for bit as the sum's)."""
    if grid.dim == 1:
        return np.multiply(grid.rfft_ik[0], hat[0], out=None if terms is None else terms[0]) + 0.0
    ik = grid.rfft_ik.reshape((grid.dim,) + (1,) * (hat.ndim - 1 - grid.dim) + grid.rfft_shape)
    return np.sum(np.multiply(ik, hat, out=terms), axis=0)


def forward_transform(f: ScalarField) -> np.ndarray:
    """Fourier coefficients u_hat(beta) (full FFT layout, normalized by 1/|T^N| measure).

    A constant field c maps to u_hat(0) = c with every other coefficient zero.
    """
    _require_finite(f.data)
    return scipy.fft.fftn(f.data) / f.data.size


def inverse_transform(grid: SpectralGrid, coeffs: np.ndarray) -> ScalarField:
    """Evaluate sum_beta u_hat(beta) e^{i beta.x} on the grid (real part; full layout)."""
    if coeffs.shape != grid.shape:
        raise InvalidField(
            f"coefficient array has shape {coeffs.shape}, expected {grid.shape}")
    return ScalarField(grid, scipy.fft.ifftn(coeffs * coeffs.size).real)


# ---------------------------------------------------------------------------
# derivative operators (pure spectral multipliers, Nyquist zeroed)


def _hat(f: Field) -> np.ndarray:
    _require_finite(f.data)
    return to_spectral(f.data, f.grid)


def gradient(f: ScalarField) -> VectorField:
    """Gradient via multiplication by i*beta_j per axis."""
    return VectorField(f.grid, to_physical(grad_hat(_hat(f), f.grid), f.grid))


def divergence(F: VectorField) -> ScalarField:
    return ScalarField(F.grid, to_physical(div_hat(_hat(F), F.grid), F.grid))


def laplacian(f: ScalarField) -> ScalarField:
    return ScalarField(f.grid, to_physical(f.grid.rfft_minus_beta_sq * _hat(f), f.grid))


def hessian(f: ScalarField) -> TensorField:
    """Second derivatives, component (i, j) = d_i d_j f (multiplier -beta_i beta_j)."""
    return TensorField(f.grid, to_physical(hess_hat(_hat(f), f.grid), f.grid))


def vector_gradient(F: VectorField) -> TensorField:
    """Velocity-gradient tensor, component (i, j) = d_i F_j."""
    return TensorField(F.grid, to_physical(grad_hat(_hat(F), F.grid), F.grid))


def tensor_divergence(T: TensorField) -> VectorField:
    """Row-contracted divergence, component j = sum_i d_i T_ij."""
    return VectorField(T.grid, to_physical(div_hat(_hat(T), T.grid), T.grid))


# ---------------------------------------------------------------------------
# quadrature and norms


def means(samples: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """The mean over ``grid`` of each leading member of ``samples``, each
    member's sum its own ``.sum()`` (and so ``np.mean``) to the bit."""
    rows = samples.reshape(-1, math.prod(grid.shape))
    return rows.sum(axis=1) / rows.shape[1]


def integrals(samples: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """The rectangle rule of each leading member of ``samples``: its mean times
    |T^N|, exact for resolved trig polynomials; an overflow gives inf or nan."""
    return means(samples, grid) * grid.volume


def integrate(f: ScalarField) -> float:
    """The rectangle-rule integral of one finite field."""
    _require_finite(f.data)
    return float(integrals(f.data, f.grid)[0])


def lp_norm(f: Field, p: float) -> float:
    """Discrete L^p norm of one field, the one-row case of ``lp_norms``.

    Vector fields are measured through their pointwise Euclidean magnitude.
    """
    data = f.data if f.rank == 0 else np.sqrt(np.sum(f.data ** 2, axis=0))
    return lp_norms(data, p, f.grid)[0]


def lp_norms(samples: np.ndarray, p: float, grid: SpectralGrid,
             scratch: np.ndarray | None = None) -> list[float]:
    """Discrete L^p norm of each leading row of scalar ``samples`` on
    ``grid``: the cell-volume-weighted lattice sum, p = inf the max.  Each
    row is summed on its own, and each root taken on its own value.
    |samples| and its power are formed in ``scratch`` (an array of the
    samples' shape) when given, in a new array otherwise."""
    if p < 1:
        raise ValueError(f"L^p norm requires p >= 1, got {p}")
    rows = np.abs(samples, out=scratch).reshape(-1, math.prod(grid.shape))
    if math.isinf(p):
        return rows.max(axis=1).tolist()
    sums = np.power(rows, p, out=rows).sum(axis=1) * grid.cell_volume
    return [total ** (1.0 / p) for total in sums.tolist()]


def _weighted_power(real: np.ndarray, imag: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """The weighted power spectra w_k sum_components |U_k|^2, one row a
    field, of the coefficients whose parts are ``real`` and ``imag``
    (leading rows, then the component axis), with w_k =
    ``grid.rfft_multiplicity``."""
    return (np.sum(real ** 2 + imag ** 2, axis=-1 - grid.dim).reshape(len(real), -1)
            * grid.rfft_multiplicity.ravel())


def _parseval_sums(power: np.ndarray, squared_multipliers, grid: SpectralGrid) -> np.ndarray:
    """|T^N| / size^2 * sum_k m(k)^2 P_k for each row P of ``power``
    (``_weighted_power``) and each of ``squared_multipliers``: a
    (multipliers, rows) array, each sum taken on its own."""
    sums = np.array([(power * square.ravel()).sum(axis=-1) for square in squared_multipliers])
    sums *= grid.volume / math.prod(grid.shape) ** 2
    return sums


def _coefficient_l2_norms(hat: np.ndarray, squared_multipliers,
                          grid: SpectralGrid) -> list[float]:
    """Discrete L^2 norm of m(D) u for each field u whose unnormalized rfft
    coefficients U ``hat`` holds (leading rows, then the component axis)
    and each real multiplier m whose squares over the rfft half lattice
    are the rows of ``squared_multipliers`` (an array of such rows, or any
    iterable of them), by discrete Parseval:

        ||m(D) u||^2 = |T^N| / size^2 * sum_k w_k m(k)^2 sum_components |U_k|^2

    with w_k = ``grid.rfft_multiplicity``.  The weighted power spectra
    w_k sum_components |U_k|^2 are formed once (w_k is 1 or 2, so short of
    overflow the product w_k m(k)^2 |U_k|^2 has the same bits whichever
    factor takes w_k), and the multipliers are taken one at a time, each as one
    (fields, modes) product: the transient memory is a few arrays of the
    fields' power spectra, whatever the number of multipliers.  Row-major
    over (field, multiplier); each sum taken on its own and each root per
    value, as in ``lp_norms``, whose p = 2 value this equals to roundoff.

    A field whose largest term times |T^N| / size^2 is not a normal float
    is measured at 2^-e times its coefficients, its largest part then in
    [0.5, 1), and its norms scaled back by 2^e: powers of two scale exactly,
    so its squares keep their bits, and the other fields' norms are as before."""
    power = _weighted_power(hat.real, hat.imag, grid)
    scale = grid.volume / math.prod(grid.shape) ** 2
    low = np.flatnonzero(power.max(axis=1) * scale < np.finfo(float).tiny)
    if low.size:
        parts = np.stack([hat[low].real, hat[low].imag])
        shifts = np.frexp(np.abs(parts).reshape(2, len(low), -1).max(axis=(0, 2)))[1]
        power[low] = _weighted_power(
            *np.ldexp(parts, -shifts.reshape((-1,) + (1,) * (hat.ndim - 1))), grid)
    sums = _parseval_sums(power, squared_multipliers, grid)
    norms = [total ** 0.5 for total in sums.T.ravel().tolist()]
    for row, shift in zip(low.tolist(), shifts.tolist() if low.size else ()):
        span = slice(row * len(sums), (row + 1) * len(sums))
        norms[span] = [math.ldexp(norm, shift) for norm in norms[span]]
    return norms


def grad_sq_integrals(hat: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """int |grad u|^2 dx of each leading member u of real samples whose
    unnormalized rfft coefficients ``hat`` holds, with no transform back:
    the discrete Parseval sum of ``_coefficient_l2_norms`` with m(k)^2 =
    |beta|^2, Nyquist zeroed as ``grad_hat`` zeroes it, which equals the
    rectangle rule of the spectral gradient's squares to roundoff."""
    power = _weighted_power(hat.real[:, None], hat.imag[:, None], grid)
    return -_parseval_sums(power, (grid.rfft_minus_beta_sq,), grid)[0]


def relative_l2_gap(a: Field, b: Field) -> float:
    """|a - b|_L2 / max(|a|_L2, |b|_L2), 0 when both vanish."""
    diff = float(np.sqrt(np.sum((a.data - b.data) ** 2)))
    scale = max(float(np.sqrt(np.sum(a.data ** 2))),
                float(np.sqrt(np.sum(b.data ** 2))))
    if scale == 0.0:
        return 0.0
    return diff / scale


# ---------------------------------------------------------------------------
# dealiasing


def dealias(f: Field) -> Field:
    """Zero every coefficient with any |k_j| above the 2/3-rule cutoff.

    Applied after nonlinear products so aliased images (which land above the
    cutoff when the factors were below it) never pollute retained modes.
    """
    keep = f.grid.rfft_dealias_keep
    return f.with_data(to_physical(keep * to_spectral(f.data, f.grid), f.grid))


def dealiased_product(a: ScalarField, b: ScalarField) -> ScalarField:
    return dealias(ScalarField(a.grid, a.data * b.data))
