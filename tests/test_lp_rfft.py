"""The Littlewood-Paley layer on rfft coefficients: its tables against a
construction on the full FFT lattice, which stays the reference, and its
transform budget (counts, so machine-independent)."""

import math

import numpy as np
import pytest

from kortorus import littlewood_paley as lp
from kortorus.littlewood_paley import (
    BesovIndex,
    besov_norm,
    build_dyadic_family,
    chi_profile,
    heat_regularity_check,
    phi_profile,
)
from kortorus.scenarios import besov_corpus
from kortorus.spectral import SpectralGrid, gradient
from helpers import measure


@pytest.mark.parametrize("resolution", [64, 256, (32, 64), (64, 64)])
def test_tables_are_the_full_lattice_tables_restricted(resolution):
    grid = SpectralGrid(resolution)
    fam = build_dyadic_family(grid)
    full = grid.beta_magnitude
    half = (Ellipsis, slice(None, grid.shape[-1] // 2 + 1))
    q_max = max(0, math.ceil(math.log2(float(np.max(full)))))
    chi = chi_profile(full)
    phis = [phi_profile(full / 2.0 ** q) for q in range(q_max + 1)]
    total = chi.copy()
    for table in phis:
        total = total + table

    # every row of both flavors: blocks q = -1..q_max, chi or phi(2 beta) at q = -1
    references = {"nonhomogeneous": [chi] + phis,
                  "homogeneous-style": [phi_profile(2.0 * full)] + phis}

    assert fam.q_max == q_max
    assert np.array_equal(fam.chi_table, chi[half])
    assert len(fam.phi_tables) == len(phis)
    for table, reference in zip(fam.phi_tables, phis):
        assert np.array_equal(table, reference[half])
    assert fam.tables.keys() == references.keys()
    for flavor, rows in references.items():
        assert fam.tables[flavor].shape == (q_max + 2,) + grid.rfft_shape
        for q, reference in zip(fam.block_range, rows, strict=True):
            assert np.array_equal(fam.tables[flavor][q + 1], reference[half])
            assert np.array_equal(fam.multiplier(q, flavor), reference[half])
    assert np.array_equal(fam.multiplier(-1, "homogeneous-style"), phi_profile(2.0 * full)[half])
    assert fam.partition_deviation() == float(np.max(np.abs(total - 1.0)))


@pytest.mark.parametrize("forcing_kind", ["none", "callable", "constant"])
def test_heat_check_transform_budget(fft_count, forcing_kind):
    # one forward transform of u0 and one of the forcing (a callable's time
    # samples stacked).  At p = 2 the block norms come from the coefficients,
    # with no inverse transform.  At other p the blocks of u at every time
    # sample, and those of a callable forcing, are synthesized in chunks of
    # at most _BLOCK_CHUNK_ELEMENTS samples, one inverse transform a chunk;
    # a constant forcing's blocks are synthesized once (u0's norm comes from
    # the t = 0 block norms).  At 1D N = 64, 7 blocks: 65 samples take one
    # chunk and 257 take four.
    grid = SpectralGrid(64)
    u0 = besov_corpus(grid, 1, seed=20)[0]
    f = besov_corpus(grid, 1, seed=21)[0]
    forcing = {"none": None, "callable": lambda t: f.data * math.cos(t),
               "constant": f}[forcing_kind]
    for n_time, chunks in ((65, 1), (257, 4)):
        assert chunks == math.ceil(n_time * 7 * 64 / lp._BLOCK_CHUNK_ELEMENTS)
        for p in (2.0, 3.0):
            used = measure(fft_count, lambda: heat_regularity_check(
                u0, forcing, 0.5, 1.0, p, 2.0, 2.0, 1.0, 1.0, n_time=n_time))
            budget = ({"none": 1, "constant": 2, "callable": 2} if p == 2.0 else
                      {"none": 1 + chunks, "constant": 3 + chunks, "callable": 2 + 2 * chunks})
            assert used["calls"] == budget[forcing_kind]


@pytest.mark.parametrize("resolution, vector", [(64, False), ((32, 32), True)])
def test_besov_norm_transform_budget(fft_count, resolution, vector):
    grid = SpectralGrid(resolution)
    u = besov_corpus(grid, 1, seed=3)[0]
    field = gradient(u) if vector else u
    # one forward transform, and one inverse transform for the blocks at p != 2
    for p, calls in ((2.0, 1), (3.0, 2)):
        used = measure(fft_count, lambda: besov_norm(field, BesovIndex(1.0, p, 2.0)))
        assert used["calls"] == calls
