"""Identity and inequality verification suites behind ``kortorus verify``.

Each suite sweeps a seeded corpus and returns one CheckResult per check; the
``check_*`` generators it shares with the acceptance criteria take corpus and
tolerance as arguments.  A check passes when its residual (or constant) meets
the tolerance, and fails on an empty corpus.  Exact-zero checks compare
bit-for-bit.  Empirical-constant checks never fail on magnitude, only on
non-finiteness or drift above 2x under corpus or resolution refinement.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import littlewood_paley as lp
from .functionals import quartic_forms, vacuum_functional
from .model import (
    FieldState,
    ModelParams,
    effective_velocity,
    inverse_density_capillarity,
    korteweg_div_general,
    korteweg_div_special,
    rhs,
)
from .scenarios import besov_corpus, density_corpus, velocity_corpus
from .spectral import (
    ScalarField,
    SpectralGrid,
    VectorField,
    gradient,
    hessian,
    integrate,
    laplacian,
    lp_norm,
    relative_l2_gap,
    tensor_divergence,
    to_spectral,
    vector_gradient,
    dealias,
    TensorField,
)


@dataclass(frozen=True)
class CheckResult:
    """``elapsed_s``: seconds a suite spent on this check since the previous
    one ended, building its corpus included."""

    name: str
    value: float
    tolerance: float
    passed: bool
    detail: str = ""
    elapsed_s: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return (f"{status}  {self.name}: value={self.value:.6e} tol={self.tolerance:.3e}"
                f" elapsed={self.elapsed_s:.3f}s{extra}")


def _timed(suite):
    """A suite written as a generator of CheckResults, returning their list
    with each result stamped with its elapsed time."""
    @functools.wraps(suite)
    def timed(seed: int = 0) -> list[CheckResult]:
        results, start = [], time.perf_counter()
        for res in suite(seed):
            now = time.perf_counter()
            results.append(replace(res, elapsed_s=now - start))
            start = now
        return results
    return timed


def _max_check(name, values, tol, detail="") -> CheckResult:
    if not values:
        return CheckResult(name, math.nan, tol, False, "empty corpus")
    worst = float(np.max(values))
    return CheckResult(name, worst, tol, worst < tol, detail)


class DensityFields:
    """A density with the fields its capillary checks share, each computed on
    first use: ln rho, its gradient and Laplacian, and the closed-form
    capillary divergence for kappa(rho) = kappa/rho."""

    def __init__(self, rho: ScalarField, kappa: float):
        self.rho, self.kappa = rho, kappa

    ln = functools.cached_property(lambda self: ScalarField(self.rho.grid, np.log(self.rho.data)))
    grad_ln = functools.cached_property(lambda self: gradient(self.ln))
    lap_ln = functools.cached_property(lambda self: laplacian(self.ln))
    special = functools.cached_property(lambda self: korteweg_div_special(self.rho, self.kappa))


def laplacian_log_residual(d: DensityFields) -> float:
    """max |Lap rho - rho Lap(ln rho) - |grad rho|^2 / rho| over the grid."""
    rho = d.rho
    return float(np.max(np.abs(laplacian(rho).data - rho.data * d.lap_ln.data
                               - np.sum(gradient(rho).data ** 2, axis=0) / rho.data)))


def vacuum_identity_residual(rho: ScalarField, params: ModelParams, p: float) -> float:
    """Max-norm residual of the vacuum functional's multiplier identity."""
    return vacuum_functional(FieldState(rho, rho.grid.zero_vector()), params,
                             p).identity_residual


def check_capillary_gap(densities: list[DensityFields], tol: float = 1e-8):
    """General capillary divergence with kappa(rho) = kappa/rho against the closed form."""
    yield _max_check("capillary general-vs-closed-form relative L2 gap", [
        relative_l2_gap(korteweg_div_general(d.rho, inverse_density_capillarity(d.kappa)),
                        d.special) for d in densities], tol)


def check_laplacian_log(densities: list[DensityFields], tol: float = 1e-8):
    yield _max_check("pointwise identity Lap(rho) = rho Lap(ln rho) + |grad rho|^2/rho",
                     [laplacian_log_residual(d) for d in densities], tol)


def check_integration_by_parts(densities: list[DensityFields], tol: float = 1e-7):
    """int div K . grad ln rho = -kappa int rho |Hess ln rho|^2, relative gap."""
    gaps = []
    for d in densities:
        grid = d.rho.grid
        lhs = integrate(ScalarField(grid, np.sum(d.special.data * d.grad_ln.data, axis=0)))
        rhs_val = -d.kappa * integrate(ScalarField(
            grid, d.rho.data * np.sum(hessian(d.ln).data ** 2, axis=(0, 1))))
        gaps.append(abs(lhs - rhs_val) / abs(rhs_val))
    yield _max_check("integration by parts against grad(ln rho)", gaps, tol)


def check_vacuum_identity(rhos, params: ModelParams, p: float, tol: float = 1e-8):
    yield _max_check("vacuum multiplier identity residual",
                     [vacuum_identity_residual(rho, params, p) for rho in rhos], tol)


@_timed
def suite_appendix(seed: int = 0):
    """Capillary-tensor equivalences and the supporting pointwise identities."""
    one_d = density_corpus(SpectralGrid(256), 8, seed=seed, lo=1.0, hi=3.0)
    two_d = density_corpus(SpectralGrid((128, 128)), 4, seed=seed + 1, lo=1.0, hi=3.0)
    densities = [DensityFields(rho, 1.0) for rho in one_d + two_d]
    yield from check_capillary_gap(densities)
    yield from check_laplacian_log(densities)
    inter_gaps = []
    for d in densities:
        grid = d.rho.grid
        sq = dealias(ScalarField(grid, np.sum(d.grad_ln.data ** 2, axis=0)))
        inter = dealias(VectorField(grid, d.kappa * d.rho.data
                                    * (gradient(d.lap_ln).data + 0.5 * gradient(sq).data)))
        inter_gaps.append(relative_l2_gap(d.special, inter))
    yield _max_check("closed form vs intermediate assembly", inter_gaps, 1e-8)
    yield from check_integration_by_parts(densities)


@_timed
def suite_entropy(seed: int = 0):
    """Momentum-form equivalence, change-of-variables consistency, and the
    algebraic identities feeding the entropy monitors."""
    g1 = SpectralGrid(128)
    rhos = density_corpus(g1, 4, seed=seed + 10, lo=1.0, hi=2.0)
    vels = velocity_corpus(g1, 4, seed=seed + 11, amplitude=0.5)

    # diffusion-tensor assemblies agree: (mu-a) div(r grad u) + a div(r D u)
    # versus div(mu r grad u) + div(a r grad u^T)
    mu, al = 1.0, 0.4
    diffs = []
    for rho, u in zip(rhos, vels):
        grid = rho.grid
        grad_u = vector_gradient(u)
        sym = TensorField(grid, grad_u.data + np.swapaxes(grad_u.data, 0, 1))
        div_rho_grad_u = tensor_divergence(TensorField(grid, rho.data * grad_u.data)).data
        lhs = ((mu - al) * div_rho_grad_u
               + al * tensor_divergence(TensorField(grid, rho.data * sym.data)).data)
        rhs_d = (mu * div_rho_grad_u
                 + al * tensor_divergence(
                     TensorField(grid, rho.data * np.swapaxes(grad_u.data, 0, 1))).data)
        diffs.append(float(np.max(np.abs(lhs - rhs_d))))
    yield _max_check("diffusion-tensor assemblies agree", diffs, 1e-11)

    # original-variant tendencies mapped through the change of variables
    params1 = ModelParams(mu=1.0, alpha=0.5, kappa=0.5, a=1.0, gamma=2.0,
                          variant="effective_v1")
    gaps_rho, gaps_v = [], []
    for rho, u in zip(rhos, vels):
        grid = rho.grid
        st_orig = FieldState(rho, u)
        drho_o, du_o = rhs(st_orig, params1.with_variant("original"))
        dv_mapped = VectorField(grid, du_o.data + params1.eps * gradient(
            ScalarField(grid, drho_o.data / rho.data)).data)
        st_eff = FieldState(rho, effective_velocity(rho, u, params1))
        drho_e, dv_e = rhs(st_eff, params1)
        gaps_rho.append(relative_l2_gap(drho_o, drho_e))
        gaps_v.append(relative_l2_gap(dv_mapped, dv_e))
    yield _max_check("density tendency, original vs effective", gaps_rho, 1e-8)
    yield _max_check("velocity tendency mapped through the change of variables",
                     gaps_v, 1e-8)

    # quartic dissipation identity (band-limited fields, exact product space)
    quartic = []
    g2 = SpectralGrid((64, 64))
    for v in velocity_corpus(g2, 4, seed=seed + 12, amplitude=1.0, kmax=4):
        direct, identity = quartic_forms(v)
        quartic.append(float(np.max(np.abs(direct - identity))))
    yield _max_check(
        "quartic dissipation: quadruple sum vs half-gradient-squared form",
        quartic, 1e-12)

    # vacuum multiplier identity
    params2 = ModelParams(mu=1.0, alpha=0.0, kappa=1.0, a=1.0, gamma=2.0,
                          variant="effective_v2")
    yield from check_vacuum_identity(
        density_corpus(SpectralGrid(256), 4, seed=seed + 13, lo=1.0, hi=3.0), params2, 3.0)


def check_dyadic_structure(cases, shift: float, tol: float = 1e-12):
    """Partition of unity and block supports on each grid; reconstruction of
    u + shift from its blocks and Delta_q Delta_q' u = 0 exactly for each
    field u of a case (grid, corpus, block pairs with |q - q'| >= 2)."""
    families = [lp.family_for(grid) for grid, _, _ in cases]
    yield _max_check("partition of unity deviation over the lattice",
                     [fam.partition_deviation() for fam in families], tol)
    # exact checks: 1.0 marks a violation against a tolerance of 0.5
    yield _max_check("shell/ball support disjointness (exact)", [
        float(any(np.any(rows[i] * rows[j]) for i in range(len(rows))
                  for j in range(i + 2, len(rows))))
        for rows in (fam.tables["nonhomogeneous"] for fam in families)], 0.5)
    recon = []
    for fam, (grid, corpus, _) in zip(families, cases):
        for u in corpus:
            shifted = u.data + shift
            blocks = np.concatenate(list(lp._block_fields(to_spectral(shifted[None], grid), fam,
                                                          "nonhomogeneous")))
            recon.append(float(np.max(np.abs(blocks[:, 0].sum(axis=0) - shifted))))
    yield _max_check("reconstruction mean + sum of blocks", recon, tol)
    yield _max_check("block composition |q-q'| >= 2 is the exact zero field", [
        float(np.any(lp.dyadic_block_pair(u, q, qp).data))
        for _, corpus, pairs in cases for u in corpus for q, qp in pairs], 0.5)


@_timed
def suite_lp_partition(seed: int = 0):
    """Dyadic-family structure: partition of unity, supports, reconstruction."""
    yield from check_dyadic_structure(
        [(grid, besov_corpus(grid, 3, seed=seed + 20), ((1, 4),))
         for grid in (SpectralGrid(64), SpectralGrid(256), SpectralGrid((64, 64)))],
        shift=0.0)


def check_norm_equivalences(sobolev_corpus, doubled, refined,
                            sobolev_tol: float = 4.0, ratio_tol: float = 10.0,
                            drift_tol: float = 2.0):
    """B^1_{2,2} against the Sobolev-weight norm on ``sobolev_corpus``; the
    ratios ||grad u||_{B^0_{2,2}} / ||u||_{B^1_{2,2}} within [1/ratio_tol,
    ratio_tol] with a finite constant on the corpus, the first half of
    ``doubled``; and that constant's drift on all of ``doubled`` (measured on
    its second half only) and on ``refined``, a corpus at doubled resolution."""
    ratios = []
    besov = lp._besov_norms(sobolev_corpus, lp.BesovIndex(1.0, 2.0, 2.0))
    for u, b in zip(sobolev_corpus, besov):
        h = lp.sobolev_weight_norm(u, 1.0)
        ratios.append(max(b / h, h / b))
    yield _max_check("B^1_{2,2} vs Sobolev-weight equivalence factor", ratios, sobolev_tol)

    half = len(doubled) // 2
    rep = lp.verify_derivative_equivalence(doubled[:half], 1.0, 2.0, 2.0)
    ok = (math.isfinite(rep.constant) and rep.min_ratio >= 1.0 / ratio_tol
          and rep.max_ratio <= ratio_tol)
    yield CheckResult(f"derivative-equivalence ratios within [1/{ratio_tol:g}, {ratio_tol:g}]",
                      rep.constant, ratio_tol, ok,
                      f"min={rep.min_ratio:.3f} max={rep.max_ratio:.3f}")
    # the constant max(max ratio, 1 / min ratio) of all of doubled is the
    # larger of its halves' constants
    grown = (max(rep.constant,
                 lp.verify_derivative_equivalence(doubled[half:], 1.0, 2.0, 2.0).constant),
             lp.verify_derivative_equivalence(refined, 1.0, 2.0, 2.0).constant)
    drift = max(max(c / rep.constant, rep.constant / c) for c in grown)
    yield CheckResult("derivative-equivalence constant drift under doubling",
                      drift, drift_tol, drift < drift_tol)


@_timed
def suite_lp_norms(seed: int = 0):
    """Norm equivalences with stability under corpus and resolution doubling."""
    grid = SpectralGrid(128)
    doubled = besov_corpus(grid, 200, seed=seed + 30)
    corpus = doubled[:100]
    yield from check_norm_equivalences(
        corpus[:40], doubled, besov_corpus(SpectralGrid(256), 100, seed=seed + 31))

    # embedding and product law: finite constants, stable under corpus growth;
    # the whole corpus's worst constant is the larger of its two parts'
    def growth_check(name, verifier, items, split, tol=2.0):
        first, rest = (verifier(part).worst_constant for part in (items[:split], items[split:]))
        large = max(first, rest)
        drift = large / first if first else math.inf
        return CheckResult(name, drift, tol, drift < tol, f"constant={large:.6e}")

    yield growth_check("embedding constant finite and stable",
                       lambda c: lp.verify_embedding(c, 1.0, 2.0, 2.0, 4.0, 2.0), corpus, 50)
    yield growth_check("product-law constant finite and stable",
                       lambda c: lp.verify_product_law(c, 1.0, 2.0, 2.0),
                       list(zip(corpus[:50], corpus[50:])), 25)

    # almost orthogonality
    factors = []
    sample = corpus[:20]
    rows = lp._block_norms(lp._coefficients(sample), grid, lp.BesovIndex(0.0))
    for u, norms in zip(sample, rows.tolist()):
        l2 = lp_norm(u, 2.0) ** 2
        blocks = sum(n ** 2 for n in norms)
        factors.append(max(l2 / blocks, blocks / l2))
    yield _max_check("almost-orthogonality factor", factors, 3.0)


def check_heat_oracle(grid: SpectralGrid, mu: float, T: float, tol: float = 1e-10):
    """The unforced cos x solution against its closed-form shell time integrals."""
    fam = lp.family_for(grid)
    rep = lp.heat_regularity_check(grid.from_function(np.cos), None, mu,
                                   0.0, 2.0, 2.0, 1.0, 1.0, T)
    shell_time = (1.0 - math.exp(-mu * T)) / mu
    oracle = math.sqrt(sum(
        (2.0 ** (2.0 * q) * float(fam.multiplier(q)[1]) * math.sqrt(math.pi)
         * shell_time) ** 2
        for q in fam.block_range if float(fam.multiplier(q)[1])))
    gap = abs(rep.lhs - oracle) / oracle
    yield CheckResult("single-mode decay matches closed-form time integral", gap, tol, gap < tol)


def check_heat_drift(coarse, fine, mu: float, T: float, rho1: float, rho2: float,
                     tol: float = 2.0):
    """The constant of one problem (u0, forcing, n_time) sampled at two
    resolutions; a drift below tol also means that both constants are finite."""
    c, f = (lp.heat_regularity_check(u0, forcing, mu, 1.0, 2.0, 2.0, rho1, rho2, T,
                                     n_time=n_time).constant
            for u0, forcing, n_time in (coarse, fine))
    drift = max(c / f, f / c)
    yield CheckResult("heat constant stable under resolution doubling", drift, tol, drift < tol)


@_timed
def suite_heat(seed: int = 0):
    """Parabolic maximal-regularity constants and the closed-form oracle."""
    grid = SpectralGrid(128)
    mu, T = 0.7, 1.3
    yield from check_heat_oracle(grid, mu, T)

    rng = np.random.default_rng(seed + 40)
    trials = [(besov_corpus(grid, 1, seed=seed + 41 + trial)[0],
               besov_corpus(grid, 1, seed=seed + 61 + trial)[0]) for trial in range(4)]
    for rho1, rho2 in ((math.inf, math.inf), (1.0, 1.0), (2.0, 1.0)):
        consts = []
        for u0, f0 in trials:
            omega = 1.0 + rng.uniform()
            forcing = (lambda f0d, om: (lambda t: f0d * math.cos(om * t)))(f0.data, omega)
            rep = lp.heat_regularity_check(u0, forcing, mu, 1.0, 2.0, 2.0,
                                           rho1, rho2, T, n_time=129)
            consts.append(rep.constant)
        yield CheckResult(f"heat constant finite for (rho1, rho2) = ({rho1}, {rho2})",
                          max(consts), math.inf, all(math.isfinite(c) for c in consts),
                          f"max C={max(consts):.3f}")

    # stability of the (2,1) constant under resolution doubling, with the
    # same analytic initial datum sampled on both grids
    def analytic_datum(g):
        x = g.axes()[0]
        f = np.exp(0.8 * np.sin(x)) * np.cos(2 * x)
        return ScalarField(g, f - f.mean()), None, 257

    yield from check_heat_drift(analytic_datum(grid), analytic_datum(SpectralGrid(256)),
                                mu, T, 2.0, 1.0)


SUITES = {
    "appendix": suite_appendix,
    "entropy": suite_entropy,
    "lp-partition": suite_lp_partition,
    "lp-norms": suite_lp_norms,
    "heat": suite_heat,
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    """The named suite's results, or every suite's for "all"; KeyError for an unknown name."""
    if name == "all":
        return [res for suite in SUITES.values() for res in suite(seed)]
    return SUITES[name](seed)
