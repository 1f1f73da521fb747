"""Periodic Littlewood-Paley decomposition and Besov norm machinery.

The frequency cut-offs follow the standard smooth dyadic construction:

* chi is a radial C-infinity bump, identically 1 for |xi| <= 1, ramping to 0
  at |xi| = 4/3 through the transition function built from exp(-1/t),
* phi(xi) = chi(xi/2) - chi(xi), a shell bump supported in
  {3/4 <= |xi| <= 8/3} (in fact in {1 <= |xi| <= 8/3}), valued in [0, 1].

Telescoping makes the partition of unity exact on the lattice,

    chi(beta) + sum_{q=0..Q} phi(2^-q beta) = chi(2^{-Q-1} beta) = 1

once 2^{Q+1} dominates every representable |beta|.  Blocks are indexed
q = -1, 0, 1, ..., Q in the nonhomogeneous convention: the q = -1 block
carries the chi multiplier (mean included), so

    u = Delta_{-1} u + sum_{q>=0} Delta_q u         (reconstruction)
    S_q u = sum_{p <= q-1} Delta_p u = chi(2^-q D) u  (low-frequency cutoff)

hold exactly.  The Besov norm aggregates 2^{qs} ||Delta_q u||_{L^p} over
blocks in l^r; Chemin-Lerner norms take the time norm per shell first.

A homogeneous-style flavor is also provided: phi-blocks only (with a genuine
phi(2 beta) block at q = -1), the mean excluded.  On the integer lattice the
smallest nonzero |beta| is 1, so q >= -1 already captures every mode.

The ``verify_*`` routines and the heat-equation check quantify the classical
multiplier inequalities (derivative equivalence, embeddings, product law,
parabolic maximal regularity) as empirical constants over seeded corpora.
They hard-fail only on non-finiteness or on growth under refinement, never
on the magnitude of a constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    EmptyTrajectory,
    ExponentOrderViolated,
    IndexConstraintViolated,
    ResolutionTooSmall,
    require,
)
from .spectral import (
    ScalarField,
    SpectralGrid,
    VectorField,
    _coefficient_l2_norms,
    _require_finite,
    dealiased_product,
    forward_transform,
    grad_hat,
    lp_norm,
    lp_norms,
    to_physical,
    to_spectral,
)

_MIN_SHELLS = 3
#: Samples in one chunk of synthesized block fields (see ``_block_fields``),
#: and coefficient entries in one chunk of fields measured at p = 2 (see
#: ``_block_norms``): a batch of fields or time samples is measured a chunk
#: at a time, so its transient memory does not grow with the batch.
_BLOCK_CHUNK_ELEMENTS = 2 ** 15
_FLAVORS = ("nonhomogeneous", "homogeneous-style")


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity ramp from 0 (t <= 0) to 1 (t >= 1) via exp(-1/t)."""
    t = np.asarray(t, dtype=float)
    a = np.zeros_like(t)
    b = np.zeros_like(t)
    pos = t > 0.0
    a[pos] = np.exp(-1.0 / t[pos])
    neg = t < 1.0
    b[neg] = np.exp(-1.0 / (1.0 - t[neg]))
    return a / (a + b)


def chi_profile(r: np.ndarray) -> np.ndarray:
    """Radial low-pass bump: 1 for r <= 1, 0 for r >= 4/3, smooth between."""
    r = np.asarray(r, dtype=float)
    return 1.0 - _smooth_step((r - 1.0) / (4.0 / 3.0 - 1.0))


def phi_profile(r: np.ndarray) -> np.ndarray:
    """Shell bump phi(r) = chi(r/2) - chi(r), supported in [1, 8/3]."""
    return chi_profile(np.asarray(r, dtype=float) / 2.0) - chi_profile(r)


@dataclass(frozen=True)
class BesovIndex:
    """Index triple (s, p, r) plus decomposition flavor.

    An index that breaks its constraints raises one ConstraintViolationError
    (a ValueError) listing all of them."""

    s: float
    p: float = 2.0
    r: float = 2.0
    flavor: str = "nonhomogeneous"

    def __post_init__(self):
        require(
            (self.p >= 1.0, f"Besov index p must satisfy p >= 1, got {self.p}"),
            (self.r >= 1.0, f"Besov index r must satisfy r >= 1, got {self.r}"),
            (self.flavor in _FLAVORS, f"Besov flavor must be 'nonhomogeneous' or "
                                      f"'homogeneous-style', got {self.flavor!r}"))


def _half_lattice_magnitude(grid: SpectralGrid) -> np.ndarray:
    """|beta| over the rfft half lattice (in 1D entry k is wavenumber index k)."""
    return grid.beta_magnitude[..., : grid.rfft_shape[-1]]


@dataclass(frozen=True, eq=False)
class DyadicFamily:
    """Multiplier tables over a grid's rfft half lattice, the layout of the
    coefficients they multiply: per flavor, the multipliers of the blocks
    q = -1..q_max stacked on a leading axis (row q + 1 is block q)."""

    grid: SpectralGrid
    q_max: int
    tables: dict[str, np.ndarray] = field(repr=False)

    @property
    def q_range(self) -> range:
        """Shell indices q >= 0 with stored tables."""
        return range(0, self.q_max + 1)

    @property
    def block_range(self) -> range:
        """Block indices of both flavors; nonhomogeneous q = -1 carries chi."""
        return range(-1, self.q_max + 1)

    @property
    def chi_table(self) -> np.ndarray:
        return self.tables["nonhomogeneous"][0]

    @property
    def phi_tables(self) -> tuple[np.ndarray, ...]:
        """phi(2^-q beta) for q in q_range."""
        return tuple(self.tables["nonhomogeneous"][1:])

    def multiplier(self, q: int, flavor: str = "nonhomogeneous") -> np.ndarray:
        """Block q's multiplier: chi at nonhomogeneous q = -1, phi(2^-q beta)
        otherwise, zero outside block_range."""
        if -1 <= q <= self.q_max:
            return self.tables[flavor][q + 1]
        return np.zeros(self.grid.rfft_shape)

    def partition_deviation(self) -> float:
        """max_beta |chi(beta) + sum_q phi(2^-q beta) - 1| over the lattice."""
        return float(np.max(np.abs(self.tables["nonhomogeneous"].sum(axis=0) - 1.0)))


def build_dyadic_family(grid: SpectralGrid) -> DyadicFamily:
    """Tabulate chi and the shells phi(2^-q .), q = -1..q_max, on the grid's
    rfft half lattice, for both flavors.

    The active range covers every representable |beta| up to the corner of
    the lattice, so the partition of unity holds at each point.  Raises
    ResolutionTooSmall when fewer than three shells fit.
    """
    beta_mag = _half_lattice_magnitude(grid)
    beta_max = float(np.max(beta_mag))
    q_max = max(0, math.ceil(math.log2(beta_max)))
    if q_max + 1 < _MIN_SHELLS:
        raise ResolutionTooSmall(
            f"grid supports only {q_max + 1} dyadic shells, need {_MIN_SHELLS}")
    shells = np.array([phi_profile(beta_mag / 2.0 ** q) for q in range(-1, q_max + 1)])
    blocks = shells.copy()
    blocks[0] = chi_profile(beta_mag)
    return DyadicFamily(grid, q_max, {"nonhomogeneous": blocks, "homogeneous-style": shells})


@cache
def family_for(grid: SpectralGrid) -> DyadicFamily:
    """Per-grid family cache (tables are immutable, safe to share)."""
    return build_dyadic_family(grid)


# ---------------------------------------------------------------------------
# blocks


def _apply_multiplier(u: ScalarField, table: np.ndarray) -> ScalarField:
    grid = u.grid
    return ScalarField(grid, to_physical(table * to_spectral(u.data, grid), grid))


def dyadic_block(u: ScalarField, q: int) -> ScalarField:
    """Delta_q u = sum_beta phi(2^-q beta) u_hat(beta) e^{i beta.x}.

    q = -1 applies the chi multiplier (nonhomogeneous convention); indices
    outside the active range give the zero field.
    """
    return _apply_multiplier(u, family_for(u.grid).multiplier(q))


def low_freq_cutoff(u: ScalarField, q: int) -> ScalarField:
    """S_q u = chi(2^-q D) u = sum_{p <= q-1} Delta_p u (exactly, by telescoping)."""
    if q <= -1:
        return ScalarField(u.grid, np.zeros(u.grid.shape))
    table = chi_profile(_half_lattice_magnitude(u.grid) / 2.0 ** q)
    return _apply_multiplier(u, table)


def dyadic_block_pair(u: ScalarField, q: int, q_prime: int) -> ScalarField:
    """The composed operator Delta_q Delta_{q'} in one pass.

    Multiplier operators compose by multiplying their symbols, so the
    composition is evaluated with the single table phi_q * phi_{q'}; for
    |q - q'| >= 2 that table vanishes at every lattice point and the result
    is the exact zero field (applying the blocks one after the other instead
    leaves FFT round-trip noise of order 1e-16).
    """
    family = family_for(u.grid)
    table = family.multiplier(q) * family.multiplier(q_prime)
    if not np.any(table):
        return ScalarField(u.grid, np.zeros(u.grid.shape))
    return _apply_multiplier(u, table)


def _block_norms(hat: np.ndarray, grid: SpectralGrid, idx: BesovIndex) -> np.ndarray:
    """||Delta_q u||_{L^p} at idx's p and flavor, for q in the family's
    block_range, of each field u whose rfft coefficients ``hat`` carries on
    leading batch axes, then the component axis (vector fields via
    Euclidean magnitude).  Shape hat.shape[:-1 - dim] + (number of blocks,).

    p = 2 is taken from the coefficients by Parseval, with no inverse
    transform: ``spectral._coefficient_l2_norms`` of a chunk of fields (at
    most _BLOCK_CHUNK_ELEMENTS coefficient entries, or one field where that
    alone is more) against each table, squared as it is used.  Every other p
    synthesizes the blocks in the chunks of ``_block_fields`` and measures
    each chunk in one ``lp_norms`` call."""
    family = family_for(grid)
    tables = family.tables[idx.flavor]
    rows = hat.reshape((-1,) + hat.shape[-1 - grid.dim:])
    norms = []
    if idx.p == 2.0:
        per_chunk = max(1, _BLOCK_CHUNK_ELEMENTS // math.prod(rows.shape[1:]))
        for start in range(0, len(rows), per_chunk):
            norms.extend(_coefficient_l2_norms(rows[start:start + per_chunk],
                                               (table ** 2 for table in tables), grid))
    else:
        for chunk in _block_fields(rows, family, idx.flavor):
            norms.extend(lp_norms(np.sqrt(np.sum(chunk ** 2, axis=1)), idx.p, grid))
    return np.array(norms).reshape(hat.shape[:-1 - grid.dim] + (len(tables),))


def _block_fields(hat: np.ndarray, family: DyadicFamily, flavor: str) -> Iterator[np.ndarray]:
    """Delta_q of the fields with rfft coefficients ``hat`` (leading batch
    axes, then the component axis) for every q in family.block_range.

    The (field, block) pairs run field by field, blocks in order within a
    field, and are synthesized in chunks: each yield is one batched inverse
    transform of shape (pairs, components) + grid.shape that holds at most
    _BLOCK_CHUNK_ELEMENTS samples, or one pair when a pair alone is larger."""
    grid = family.grid
    tables = family.tables[flavor]
    rows = hat.reshape((-1,) + hat.shape[-1 - grid.dim:])
    pair_size = rows.shape[1] * math.prod(grid.shape)
    per_chunk = max(1, _BLOCK_CHUNK_ELEMENTS // pair_size)
    n_pairs = len(rows) * len(tables)
    for start in range(0, n_pairs, per_chunk):
        row, block = np.divmod(np.arange(start, min(start + per_chunk, n_pairs)), len(tables))
        yield to_physical(tables[block][:, None] * rows[row], grid)


def _coefficients(fields: Sequence[ScalarField | VectorField]) -> np.ndarray:
    """rfft coefficients of a non-empty same-grid list of fields, stacked
    (field, component, ...), from one forward transform: the entry of every
    field list to ``_block_norms``.  InvalidField on a non-finite sample."""
    data = np.stack([f.data[None] if f.rank == 0 else f.data for f in fields])
    _require_finite(data)
    return to_spectral(data, fields[0].grid)


def block_lp_norms(u: ScalarField | VectorField, idx: BesovIndex) -> dict[int, float]:
    """||Delta_q u||_{L^p} per block (vector fields via Euclidean magnitude),
    from one forward transform; at p != 2 also one inverse transform per
    chunk of blocks (one in all while the blocks of u fit in one chunk).
    InvalidField on a non-finite sample."""
    norms = _block_norms(_coefficients([u]), u.grid, idx)[0]
    return dict(zip(family_for(u.grid).block_range, norms.tolist()))


def _besov_aggregates(rows: np.ndarray, idx: BesovIndex) -> list[float]:
    """l^r over blocks of 2^{qs} times each row of ``rows``, a C-contiguous
    (fields, blocks) array whose entry i of a row is the norm of block
    q = i - 1 (``DyadicFamily.block_range``).  Each value has the bits of
    its row aggregated alone: the weights and the power are elementwise, a
    row of a C-contiguous array is summed as that row alone, and the root
    is taken per value (numpy's array power can be an ulp off the scalar
    one)."""
    weighted = np.array([2.0 ** (q * idx.s) for q in range(-1, rows.shape[-1] - 1)]) * rows
    if math.isinf(idx.r):
        return np.max(weighted, axis=-1).tolist()
    return [total ** (1.0 / idx.r) for total in np.sum(weighted ** idx.r, axis=-1).tolist()]


def besov_norm(u: ScalarField | VectorField, idx: BesovIndex) -> float:
    """l^r over blocks of 2^{qs} ||Delta_q u||_{L^p}; InvalidField on a
    non-finite sample."""
    return _besov_norms([u], idx)[0]


def _besov_norms(fields: Sequence[ScalarField | VectorField], idx: BesovIndex) -> list[float]:
    """``besov_norm`` of each field of a same-grid list, equal to it field by
    field, from one stacked forward transform and ``_block_norms``."""
    if not fields:
        return []
    return _besov_aggregates(_block_norms(_coefficients(fields), fields[0].grid, idx), idx)


def sobolev_weight_norm(u: ScalarField, s: float) -> float:
    """Direct H^s norm (sum_beta (1+|beta|^2)^s |u_hat|^2 |T^N|)^(1/2).

    Comparison target for the B^s_{2,2} norm equivalence.
    """
    coeffs = forward_transform(u)
    weight = (1.0 + u.grid.beta_magnitude ** 2) ** s
    return float(np.sqrt(np.sum(weight * np.abs(coeffs) ** 2) * u.grid.volume))


# ---------------------------------------------------------------------------
# Chemin-Lerner (tilde) norms


def _check_time_norm(name: str, fields, times, rho_exp: float) -> None:
    """A time norm needs at least one snapshot, one time a snapshot and
    rho_exp >= 1."""
    if len(fields) == 0:
        raise EmptyTrajectory(f"{name} needs at least one snapshot")
    require((len(times) == len(fields), f"{name} needs one time a snapshot, got "
                                        f"{len(times)} times for {len(fields)} snapshots"),
            (rho_exp >= 1.0, f"time exponent must satisfy rho >= 1, got {rho_exp}"))


def _simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Composite Simpson integral of each row of ``y`` (rows, samples),
    sampled at the strictly increasing points ``x``, an odd number of them
    (at least three; ``heat_regularity_check`` makes its count odd):
    Simpson's rule for irregular spacing on every interval pair, with the
    operations of scipy 1.17's ``scipy.integrate.simpson(y, x=x, axis=-1)``
    in its order, so the same bits.  (scipy guards each division against a
    zero spacing, which such ``x`` do not have.)"""
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    pairs = hsum / 6.0 * (y[..., 0:-2:2] * (2.0 - 1.0 / h0divh1)
                          + y[..., 1:-1:2] * (hsum * (hsum / hprod))
                          + y[..., 2::2] * (2.0 - h0divh1))
    return np.sum(pairs, axis=-1)


def _time_lp(values: np.ndarray, times: np.ndarray, rho_exp: float,
             quadrature: str) -> list[float]:
    """L^{rho_exp} time norm of each row of ``values`` (rows, times): the
    max at rho_exp = inf, else one quadrature call over all rows (composite
    Simpson, ``_simpson``, or numpy's trapezoid), each row integrated on its
    own (the same bits as a call of its own) and each root taken per
    value."""
    if math.isinf(rho_exp):
        return np.max(values, axis=-1).tolist()
    powered = values ** rho_exp
    if quadrature == "simpson":
        integrals = _simpson(powered, times)
    else:
        integrals = np.trapezoid(powered, x=times, axis=-1)
    return [max(integral, 0.0) ** (1.0 / rho_exp) for integral in integrals.tolist()]


def _tilde_aggregate(block_series: Sequence[Sequence[float]], times: np.ndarray,
                     rho_exp: float, idx: BesovIndex, quadrature: str) -> float:
    """Tilde-norm aggregation of block_series[t][i], the norm of block
    q = i - 1 at times[t]: the L^{rho_exp} time norm of each block first,
    then l^r over blocks of the 2^{qs}-weighted time norms."""
    by_block = np.ascontiguousarray(np.asarray(block_series, dtype=float).T)
    return _besov_aggregates(np.array([_time_lp(by_block, times, rho_exp, quadrature)]), idx)[0]


def chemin_lerner_norm(fields: Sequence[ScalarField | VectorField],
                       times: Sequence[float], rho_exp: float, idx: BesovIndex) -> float:
    """Tilde norm: per-shell L^{rho_exp} in time first (trapezoid rule), l^r
    over shells second.

    Satisfies the Minkowski ordering against the iterated norm
    L^{rho_exp}_T(B^s_{p,r}): <= when r >= rho_exp, >= when r <= rho_exp.
    """
    _check_time_norm("chemin_lerner_norm", fields, times, rho_exp)
    return _tilde_aggregate(_block_norms(_coefficients(fields), fields[0].grid, idx),
                            np.asarray(times, dtype=float), rho_exp, idx, "trapezoid")


def iterated_time_besov_norm(fields: Sequence[ScalarField | VectorField],
                             times: Sequence[float], rho_exp: float, idx: BesovIndex) -> float:
    """Plain L^{rho_exp}_T(B^s_{p,r}) norm (trapezoid rule in time), for
    Minkowski-ordering checks."""
    _check_time_norm("iterated norm", fields, times, rho_exp)
    series = np.asarray([_besov_norms(fields, idx)])
    return _time_lp(series, np.asarray(times, dtype=float), rho_exp, "trapezoid")[0]


# ---------------------------------------------------------------------------
# statistical verifiers


@dataclass(frozen=True)
class RatioReport:
    """Empirical two-sided equivalence constants over a corpus."""

    min_ratio: float
    max_ratio: float
    n_fields: int
    n_excluded: int = 0

    @property
    def constant(self) -> float:
        if self.min_ratio <= 0.0:
            return math.inf
        return max(self.max_ratio, 1.0 / self.min_ratio)


@dataclass(frozen=True)
class ConstantReport:
    """Empirical one-sided inequality constant over a corpus."""

    worst_constant: float
    n_cases: int


def verify_derivative_equivalence(corpus: Sequence[ScalarField], s: float = 1.0,
                                  p: float = 2.0, r: float = 2.0) -> RatioReport:
    """Ratios ||grad u||_{B^{s-1}_{p,r}} / ||u||_{B^s_{p,r}} over the mean-free
    parts of a same-grid corpus.

    Fields whose gradient vanishes (constants) are excluded and counted.
    The centred fields are stacked and go through one forward transform,
    whose coefficients give their block norms and, through one inverse
    transform, their gradients; InvalidField on a non-finite sample.
    """
    idx, grad_idx = BesovIndex(s, p, r), BesovIndex(s - 1.0, p, r)
    if not corpus:
        return RatioReport(math.nan, math.nan, 0, 0)
    grid = corpus[0].grid
    centered = np.stack([u.data - np.mean(u.data) for u in corpus])
    _require_finite(centered)
    hat = to_spectral(centered, grid)
    del centered
    # the gradients' components come out first: (component, field, ...) -> (field, component, ...)
    grad_hats = to_spectral(np.moveaxis(to_physical(grad_hat(hat, grid), grid), 0, 1), grid)
    ratios = []
    excluded = 0
    denoms = _besov_aggregates(_block_norms(hat[:, None], grid, idx), idx)
    grad_norms = _besov_aggregates(_block_norms(grad_hats, grid, grad_idx), grad_idx)
    for denom, grad_norm in zip(denoms, grad_norms):
        if denom == 0.0 or grad_norm == 0.0:
            excluded += 1
            continue
        ratios.append(grad_norm / denom)
    if not ratios:
        return RatioReport(math.nan, math.nan, 0, excluded)
    return RatioReport(float(np.min(ratios)), float(np.max(ratios)),
                       len(ratios), excluded)


def verify_embedding(corpus: Sequence[ScalarField], s: float, p1: float, r1: float,
                     p2: float, r2: float) -> ConstantReport:
    """Worst constant in ||u||_{B^{s - N(1/p1 - 1/p2)}_{p2,r2}} <= C ||u||_{B^s_{p1,r1}}
    over a same-grid corpus."""
    if p1 > p2 or r1 > r2:
        raise IndexConstraintViolated(
            f"embedding requires p1 <= p2 and r1 <= r2, got p1={p1}, p2={p2}, "
            f"r1={r1}, r2={r2}")
    if not corpus:
        return ConstantReport(0.0, 0)
    grid = corpus[0].grid
    idx1 = BesovIndex(s, p1, r1)
    idx2 = BesovIndex(s - grid.dim * (1.0 / p1 - 1.0 / p2), p2, r2)
    # both norms from one forward transform of each field (and one synthesis
    # of its blocks for each p that is not 2)
    hat = _coefficients(corpus)
    worst = 0.0
    n = 0
    for source, target in zip(_besov_aggregates(_block_norms(hat, grid, idx1), idx1),
                              _besov_aggregates(_block_norms(hat, grid, idx2), idx2)):
        if source == 0.0:
            continue
        worst = max(worst, target / source)
        n += 1
    return ConstantReport(worst, n)


def verify_product_law(pairs: Sequence[tuple[ScalarField, ScalarField]], s: float,
                       p: float, r: float) -> ConstantReport:
    """Worst constant in
    ||uv||_{B^s_{p,r}} <= C (||u||_{Linf} ||v||_{B^s_{p,r}} + ||v||_{Linf} ||u||_{B^s_{p,r}}),
    products dealiased, over pairs on one grid.
    """
    n_pairs = len(pairs)
    norms = _besov_norms([dealiased_product(u, v) for u, v in pairs]
                         + [u for u, _ in pairs] + [v for _, v in pairs], BesovIndex(s, p, r))
    worst = 0.0
    n = 0
    for (u, v), lhs, norm_u, norm_v in zip(pairs, norms, norms[n_pairs:],
                                           norms[2 * n_pairs:]):
        bound = lp_norm(u, math.inf) * norm_v + lp_norm(v, math.inf) * norm_u
        if bound == 0.0:
            continue
        worst = max(worst, lhs / bound)
        n += 1
    return ConstantReport(worst, n)


# ---------------------------------------------------------------------------
# heat-equation maximal regularity


@dataclass(frozen=True)
class HeatReport:
    lhs: float
    rhs: float
    constant: float
    s: float
    rho1: float
    rho2: float


def heat_regularity_check(u0: ScalarField, forcing, mu: float, s: float, p: float,
                          r: float, rho1: float, rho2: float, T: float,
                          n_time: int = 257) -> HeatReport:
    """Empirical constant in the parabolic smoothing estimate

        ||u||_{tildeL^{rho1}_T(B^{s+2/rho1}_{p,r})}
            <= C (||u0||_{B^s_{p,r}} + mu^{1/rho2 - 1} ||f||_{tildeL^{rho2}_T(B^{s-2+2/rho2}_{p,r})})

    for d_t u - mu Lap u = f.  The solution is advanced exactly per mode
    (integrating factor), with forcing accumulated by per-substep trapezoid;
    time norms use composite Simpson (``_simpson``, which gives scipy's
    ``simpson`` bits without importing scipy.integrate) so closed-form
    single-mode cases are reproduced to ~1e-12.  The steps are written, a
    group of time samples at a time, into a stack of rfft coefficients
    whose blocks fill whole chunks of ``_block_norms``: the group's forcing
    increments are formed together, the recurrence is written in place into
    the group's stack, and the group is measured, with no physical round
    trip, before the next is made.  At p = 2 the block norms come from those
    coefficients by Parseval, with no inverse transform; at other p through
    the chunked synthesis.  ||u0||_{B^s_{p,r}} comes from the t = 0 block norms, and
    each tilde norm takes every block's time norm in one quadrature call.
    A callable forcing is sampled at every time into one array and
    transformed forward once.  Memory: about one chunk of coefficients and
    one of blocks (or, at p = 2, of their power spectra), plus the
    forcing's coefficient stack (n_time times those of one field) when the
    forcing is callable.

    ``forcing`` may be None, a time-constant ScalarField, or a callable
    t -> samples.  Needs 1 <= rho2 <= rho1 (ExponentOrderViolated), and mu,
    T > 0 and n_time >= 2 (one ConstraintViolationError listing each miss);
    a non-finite sample of u0 or of the forcing raises InvalidField.
    """
    if not (1.0 <= rho2 <= rho1):
        raise ExponentOrderViolated(
            f"need 1 <= rho2 <= rho1, got rho1={rho1}, rho2={rho2}")
    require((mu > 0.0, f"heat check needs mu > 0, got {mu}"),
            (T > 0.0, f"heat check needs T > 0, got {T}"),
            (n_time >= 2, f"heat check needs n_time >= 2, got {n_time}"))
    if n_time % 2 == 0:
        n_time += 1  # Simpson wants an odd sample count
    grid = u0.grid
    times = np.linspace(0.0, T, n_time)
    dt = times[1] - times[0]
    lam = -grid.rfft_minus_beta_sq  # |beta|^2 >= 0
    decay = np.exp(-mu * lam * dt)
    idx_u = BesovIndex(s + (0.0 if math.isinf(rho1) else 2.0 / rho1), p, r)
    idx_f = BesovIndex(s - 2.0 + (0.0 if math.isinf(rho2) else 2.0 / rho2), p, r)

    stack_shape = (n_time, 1) + grid.rfft_shape
    _require_finite(u0.data)
    if isinstance(forcing, ScalarField):
        _require_finite(forcing.data)
        f_hats = np.broadcast_to(to_spectral(forcing.data[None, None], grid), stack_shape)
        f_distinct = f_hats[:1]
    elif forcing is not None:
        samples = np.array([forcing(float(t)) for t in times], dtype=float)
        _require_finite(samples)
        f_hats = f_distinct = to_spectral(samples[:, None], grid)
    # u in groups of time samples whose blocks fill whole chunks, so that the
    # chunks are those of all samples at once
    per_group = max(1, _BLOCK_CHUNK_ELEMENTS // math.prod(grid.shape))
    u_hat = to_spectral(u0.data[None], grid)
    groups = []
    for start in range(0, n_time, per_group):
        stop = min(start + per_group, n_time)
        u_hats = np.empty((stop - start,) + stack_shape[1:], dtype=complex)
        if forcing is not None:
            # the group's forcing increments, sample i's at row i - first
            first = max(start, 1)
            increments = 0.5 * dt * (decay * f_hats[first - 1:stop - 1] + f_hats[first:stop])
        for i, out in enumerate(u_hats, start):
            if i:
                np.multiply(decay, u_hat, out=out)
                if forcing is not None:
                    out += increments[i - first]
            else:
                out[...] = u_hat
            u_hat = out
        groups.append(_block_norms(u_hats, grid, idx_u))
    u_norms = np.concatenate(groups)

    lhs = _tilde_aggregate(u_norms, times, rho1, idx_u, "simpson")
    # u0's B^s_{p,r} norm from the t = 0 block norms, which depend on p, not on s
    rhs_val = _besov_aggregates(u_norms[:1], BesovIndex(s, p, r))[0]
    if forcing is not None:
        f_norms = np.broadcast_to(_block_norms(f_distinct, grid, idx_f), u_norms.shape)
        f_norm = _tilde_aggregate(f_norms, times, rho2, idx_f, "simpson")
        rhs_val = rhs_val + mu ** (1.0 / rho2 - 1.0) * f_norm
    constant = math.inf if rhs_val == 0.0 else lhs / rhs_val
    return HeatReport(lhs, rhs_val, constant, s, rho1, rho2)
