"""The Littlewood-Paley measurements computed one field, one time sample and
one block at a time: the reference that the stacked, chunked block norms of
``littlewood_paley`` must equal bit for bit.

Every field and every time sample here goes through a forward transform of
its own.  At p = 2 every block is measured on its own from those
coefficients, by Parseval; at any other p every block goes through an
inverse transform of its own, and every l^r sum over blocks is taken for
its field alone.  Only the time quadratures and the L^p and coefficient L^2
rules are shared with the module, because they are what the batched path
feeds, not what it changes.  ``test_lp_parseval`` holds the time
quadratures to scipy's and numpy's on each series alone, and the
coefficient L^2 rule to the synthesized ``lp_norm``.
"""

from __future__ import annotations

import math

import numpy as np

from kortorus.littlewood_paley import (
    BesovIndex,
    ConstantReport,
    HeatReport,
    RatioReport,
    _time_lp,
    family_for,
)
from kortorus.spectral import (
    ScalarField,
    _coefficient_l2_norms,
    dealiased_product,
    gradient,
    lp_norm,
    to_physical,
    to_spectral,
)


def coefficient_block_norms(hat: np.ndarray, idx: BesovIndex, grid) -> list[float]:
    """||Delta_q u||_{L^p} per block from the rfft coefficients of one field
    (component axis first): at p = 2 one coefficient sum per block, at any
    other p ``synthesized_block_norms``."""
    if idx.p != 2.0:
        return synthesized_block_norms(hat, idx, grid)
    family = family_for(grid)
    return [_coefficient_l2_norms(hat[None], (family.multiplier(q, idx.flavor) ** 2)[None],
                                  grid)[0]
            for q in family.block_range]


def synthesized_block_norms(hat: np.ndarray, idx: BesovIndex, grid) -> list[float]:
    """||Delta_q u||_{L^p} per block, one inverse transform per block and
    ``lp_norm`` of its samples (vector fields via Euclidean magnitude)."""
    family = family_for(grid)
    norms = []
    for q in family.block_range:
        block = to_physical(family.multiplier(q, idx.flavor) * hat, grid)
        norms.append(lp_norm(ScalarField(grid, np.sqrt(np.sum(block ** 2, axis=0))), idx.p))
    return norms


def besov_aggregate(norms, idx: BesovIndex, family) -> float:
    """l^r over blocks of 2^{qs} times ``norms``, for one field alone."""
    arr = np.asarray([2.0 ** (q * idx.s) * n for q, n in zip(family.block_range, norms)])
    if math.isinf(idx.r):
        return float(np.max(arr))
    return float(np.sum(arr ** idx.r) ** (1.0 / idx.r))


def tilde_aggregate(block_series, times, rho_exp: float, idx: BesovIndex, family,
                    quadrature: str) -> float:
    """block_series[t][i] is block i's norm at times[t]: each block's time
    norm, then ``besov_aggregate`` of them."""
    by_block = np.ascontiguousarray(np.asarray(block_series, dtype=float).T)
    return besov_aggregate(_time_lp(by_block, times, rho_exp, quadrature), idx, family)


def block_norms(u, idx: BesovIndex) -> list[float]:
    return coefficient_block_norms(to_spectral(u.data[None] if u.rank == 0 else u.data, u.grid),
                                   idx, u.grid)


def besov_norm(u, idx: BesovIndex) -> float:
    return besov_aggregate(block_norms(u, idx), idx, family_for(u.grid))


def chemin_lerner_norm(fields, times, rho_exp: float, idx: BesovIndex) -> float:
    return tilde_aggregate([block_norms(f, idx) for f in fields],
                           np.asarray(times, dtype=float), rho_exp, idx,
                           family_for(fields[0].grid), "trapezoid")


def iterated_time_besov_norm(fields, times, rho_exp: float, idx: BesovIndex) -> float:
    return _time_lp(np.asarray([[besov_norm(f, idx) for f in fields]]),
                    np.asarray(times, dtype=float), rho_exp, "trapezoid")[0]


def verify_derivative_equivalence(corpus, s: float = 1.0, p: float = 2.0,
                                  r: float = 2.0) -> RatioReport:
    ratios = []
    excluded = 0
    for u in corpus:
        centered = ScalarField(u.grid, u.data - np.mean(u.data))
        denom = besov_norm(centered, BesovIndex(s, p, r))
        grad_norm = besov_norm(gradient(centered), BesovIndex(s - 1.0, p, r))
        if denom == 0.0 or grad_norm == 0.0:
            excluded += 1
            continue
        ratios.append(grad_norm / denom)
    if not ratios:
        return RatioReport(math.nan, math.nan, 0, excluded)
    return RatioReport(float(np.min(ratios)), float(np.max(ratios)), len(ratios), excluded)


def verify_embedding(corpus, s: float, p1: float, r1: float, p2: float,
                     r2: float) -> ConstantReport:
    worst = 0.0
    n = 0
    for u in corpus:
        shift = u.grid.dim * (1.0 / p1 - 1.0 / p2)
        source = besov_norm(u, BesovIndex(s, p1, r1))
        target = besov_norm(u, BesovIndex(s - shift, p2, r2))
        if source == 0.0:
            continue
        worst = max(worst, target / source)
        n += 1
    return ConstantReport(worst, n)


def verify_product_law(pairs, s: float, p: float, r: float) -> ConstantReport:
    idx = BesovIndex(s, p, r)
    worst = 0.0
    n = 0
    for u, v in pairs:
        lhs = besov_norm(dealiased_product(u, v), idx)
        bound = (lp_norm(u, math.inf) * besov_norm(v, idx)
                 + lp_norm(v, math.inf) * besov_norm(u, idx))
        if bound == 0.0:
            continue
        worst = max(worst, lhs / bound)
        n += 1
    return ConstantReport(worst, n)


def heat_regularity_check(u0: ScalarField, forcing, mu: float, s: float, p: float,
                          r: float, rho1: float, rho2: float, T: float,
                          n_time: int = 257) -> HeatReport:
    """The same recurrence, one time sample at a time: each sample's
    forcing transformed on its own, each sample's blocks synthesized on
    their own."""
    if n_time % 2 == 0:
        n_time += 1
    grid = u0.grid
    family = family_for(grid)
    times = np.linspace(0.0, T, n_time)
    dt = times[1] - times[0]
    decay = np.exp(-mu * -grid.rfft_minus_beta_sq * dt)
    idx_u = BesovIndex(s + (0.0 if math.isinf(rho1) else 2.0 / rho1), p, r)
    idx_f = BesovIndex(s - 2.0 + (0.0 if math.isinf(rho2) else 2.0 / rho2), p, r)

    def forcing_hat(t):
        data = forcing.data if isinstance(forcing, ScalarField) else forcing(float(t))
        return to_spectral(np.asarray(data, dtype=float)[None], grid)

    u_hat = to_spectral(u0.data[None], grid)
    u_norms = [coefficient_block_norms(u_hat, idx_u, grid)]
    if forcing is not None:
        f_hat = forcing_hat(times[0])
        f_norms = [coefficient_block_norms(f_hat, idx_f, grid)]
    for t in times[1:]:
        u_hat = decay * u_hat
        if forcing is not None:
            f_hat_next = forcing_hat(t)
            u_hat = u_hat + 0.5 * dt * (decay * f_hat + f_hat_next)
            f_hat = f_hat_next
            f_norms.append(coefficient_block_norms(f_hat, idx_f, grid))
        u_norms.append(coefficient_block_norms(u_hat, idx_u, grid))

    lhs = tilde_aggregate(u_norms, times, rho1, idx_u, family, "simpson")
    rhs_val = besov_aggregate(u_norms[0], BesovIndex(s, p, r), family)
    if forcing is not None:
        f_norm = tilde_aggregate(f_norms, times, rho2, idx_f, family, "simpson")
        rhs_val = rhs_val + mu ** (1.0 / rho2 - 1.0) * f_norm
    constant = math.inf if rhs_val == 0.0 else lhs / rhs_val
    return HeatReport(lhs, rhs_val, constant, s, rho1, rho2)
