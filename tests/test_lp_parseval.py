"""The rules that the stacked block norms share with ``lp_reference``, held
apart from it: the p = 2 coefficient sum against the synthesized blocks'
``lp_norm``, and the stacked time norms against scipy's and numpy's
quadratures on each series alone.  The module's own Simpson rule is held to
scipy's bit for bit, and the l^r sum over blocks, taken over a stack of
fields at once, to each field's sum alone."""

import math

import numpy as np
import pytest
from scipy.integrate import simpson

import lp_reference as ref
from kortorus import littlewood_paley as lp
from kortorus.scenarios import besov_corpus
from kortorus.spectral import ScalarField, SpectralGrid, gradient, to_spectral

#: Relative gap allowed between a block's L^2 norm by Parseval and by synthesis.
PARSEVAL_RTOL = 1e-15


def heat_decayed(hat, grid, mu, dt, steps):
    """``hat`` and its heat-equation decays over ``steps`` steps of dt, each
    made from the one before, as the heat check makes its time samples."""
    decay = np.exp(-mu * -grid.rfft_minus_beta_sq * dt)
    samples = [hat]
    for _ in range(steps):
        samples.append(decay * samples[-1])
    return samples


def parseval_gaps(hats, flavor, grid):
    """The relative gap of each block norm by Parseval from the synthesized
    one, and the smallest nonzero norm."""
    idx = lp.BesovIndex(0.0, 2.0, 2.0, flavor)
    gaps, smallest = [], math.inf
    for hat in hats:
        for by_sum, by_synthesis in zip(ref.coefficient_block_norms(hat, idx, grid),
                                        ref.synthesized_block_norms(hat, idx, grid),
                                        strict=True):
            scale = max(by_sum, by_synthesis)
            gaps.append(abs(by_sum - by_synthesis) / scale if scale else 0.0)
            smallest = min(smallest, scale or math.inf)
    return gaps, smallest


@pytest.mark.parametrize("flavor", lp._FLAVORS)
@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
@pytest.mark.parametrize("resolution", [128, 256, (64, 64), (32, 64)], ids=str)
def test_parseval_block_norms_equal_synthesis_on_corpora(resolution, vector, flavor):
    # corpus fields, and their heat decays far enough that the smallest
    # block norms fall below 1e-40 (to 1e-150 on the 1D grids).  Below about
    # 1.5e-154 a norm's square is subnormal: both rules round it to a few
    # bits, each in its own way (1e-3 apart at 4e-161 on a 64^2 field), so
    # neither is a reference there
    grid = SpectralGrid(resolution)
    fields = besov_corpus(grid, 4, seed=9)
    hats = [to_spectral(gradient(u).data if vector else u.data[None], grid) for u in fields]
    hats = [decayed for hat in hats for decayed in heat_decayed(hat, grid, 0.7, 2.0, 4)]
    gaps, smallest = parseval_gaps(hats, flavor, grid)
    assert max(gaps) <= PARSEVAL_RTOL
    assert smallest < 1e-40


@pytest.mark.parametrize("flavor", lp._FLAVORS)
@pytest.mark.parametrize("n", [128, 256])
def test_parseval_block_norms_equal_synthesis_on_the_heat_check_datum(n, flavor):
    # the analytic datum of `verify heat`'s resolution check, through its
    # 257 time samples: at N = 256 the top blocks decay to about 1e-160,
    # where a norm's square is subnormal; one mode carries each of them,
    # the block's others many orders smaller, and there the two rules agree
    grid = SpectralGrid(n)
    x = grid.axes()[0]
    datum = np.exp(0.8 * np.sin(x)) * np.cos(2 * x)
    hat = to_spectral((datum - datum.mean())[None], grid)
    gaps, smallest = parseval_gaps(heat_decayed(hat, grid, 0.7, 1.3 / 256, 256), flavor, grid)
    assert max(gaps) <= PARSEVAL_RTOL
    assert smallest < (1e-160 if n == 256 else 1e-130)


def series_alone(series, times, rho, quadrature):
    """One series' L^rho time norm, from its own quadrature call."""
    if math.isinf(rho):
        return float(np.max(series))
    powered = series ** rho
    if quadrature == "simpson":
        integral = float(simpson(powered, x=times))
    else:
        integral = float(np.trapezoid(powered, x=times))
    return max(integral, 0.0) ** (1.0 / rho)


@pytest.mark.parametrize("quadrature", ["simpson", "trapezoid"])
@pytest.mark.parametrize("rho", [1.0, 2.0, 3.5, math.inf])
@pytest.mark.parametrize("n_time", [65, 128])
def test_stacked_time_norms_equal_each_series_alone(n_time, rho, quadrature):
    # the block norms of heat-decayed corpus fields over time, (blocks, times)
    grid = SpectralGrid(128)
    family = lp.family_for(grid)
    idx = lp.BesovIndex(1.0)
    times = np.linspace(0.0, 1.3, n_time)
    by_block = []
    for u in besov_corpus(grid, 3, seed=13):
        hats = np.array(heat_decayed(to_spectral(u.data[None], grid), grid, 0.7,
                                     times[1], n_time - 1))
        series = lp._block_norms(hats, grid, idx)
        assert series.shape == (n_time, len(family.block_range))
        expected = [series_alone(block, times, rho, quadrature) for block in series.T]
        assert lp._time_lp(np.ascontiguousarray(series.T), times, rho, quadrature) == expected
        assert lp._tilde_aggregate(series, times, rho, idx, quadrature) \
            == lp._besov_aggregates(np.array([expected]), idx)[0]
        by_block.extend(series.T)
    # many series in one call, as the heat check's blocks
    assert lp._time_lp(np.array(by_block), times, rho, quadrature) \
        == [series_alone(block, times, rho, quadrature) for block in by_block]


def same_bits(a, b) -> bool:
    """Equal arrays, -0.0 and 0.0 told apart."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("spacing", ["linspace", "sorted random"])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 64, 65, 128, 257, 513])
def test_simpson_rule_equals_scipys_bit_for_bit(n, spacing):
    """``_simpson`` against ``scipy.integrate.simpson(y, x=x, axis=-1)`` of
    scipy 1.17: odd counts take the irregular-spacing rule on every interval
    pair, even ones Cartwright's last-interval correction."""
    rng = np.random.default_rng(n)
    x = np.linspace(0.0, 1.3, n) if spacing == "linspace" else np.sort(rng.uniform(-1.0, 2.0, n))
    # signed rows, powers of norms as the heat check integrates, and zeros of both signs
    y = np.concatenate([rng.normal(size=(4, n)), rng.uniform(size=(2, n)) ** 3.5,
                        np.zeros((1, n)), -np.zeros((1, n))])
    assert same_bits(lp._simpson(y, x), simpson(y, x=x, axis=-1))


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
def test_heat_check_equals_the_one_with_scipys_rule(monkeypatch, forced):
    grid = SpectralGrid(128)
    u0, f = besov_corpus(grid, 2, seed=21)
    forcing = (lambda t: f.data * math.cos(1.7 * t)) if forced else None
    args = (u0, forcing, 0.7, 1.0, 2.0, 2.0, 3.0, 2.0, 1.3)
    report = lp.heat_regularity_check(*args)
    monkeypatch.setattr(lp, "_simpson", lambda y, x: simpson(y, x=x, axis=-1))
    assert report == lp.heat_regularity_check(*args)


@pytest.mark.parametrize("resolution", [128, 256, (32, 32)], ids=str)
def test_stacked_besov_aggregates_equal_each_row_alone(resolution):
    # 256 has 9 blocks, so each row sum runs numpy's 8-way pairwise loop
    grid = SpectralGrid(resolution)
    family = lp.family_for(grid)
    fields = besov_corpus(grid, 30, seed=17)
    rows = lp._block_norms(lp._coefficients(fields), grid, lp.BesovIndex(0.0))
    rows = np.concatenate([rows, np.zeros((1, rows.shape[1]))])
    for s in (-1.5, 0.0, 1.0, 2.3):
        for r in (1.0, 1.5, 2.0, 3.5, math.inf):
            idx = lp.BesovIndex(s, 2.0, r)
            expected = [ref.besov_aggregate(row, idx, family) for row in rows.tolist()]
            assert same_bits(lp._besov_aggregates(rows, idx), expected)
            assert same_bits([lp._besov_aggregates(row[None], idx)[0] for row in rows], expected)
