"""The stacked, chunked block norms against the one-at-a-time reference in
``lp_reference``, held with ==, and the heat check's memory against the
chunk bound."""

import math
import tracemalloc

import numpy as np
import pytest

import lp_reference as ref
from kortorus import littlewood_paley as lp
from kortorus.errors import ConstraintViolationError
from kortorus.scenarios import besov_corpus
from kortorus.spectral import ScalarField, SpectralGrid, gradient
from helpers import measure

GRIDS = [128, (32, 32)]
INDICES = [lp.BesovIndex(1.0), lp.BesovIndex(0.5, 3.0, 1.0),
           lp.BesovIndex(-0.5, math.inf, math.inf, "homogeneous-style")]


def crosses_a_chunk(grid, n_fields, components):
    """Whether the (field, block) pairs of a batch fill more than one chunk.
    On the 2D grid a chunk (32 scalar or 16 vector pairs, 7 blocks a field)
    also ends inside the blocks of a field."""
    per_chunk = max(1, lp._BLOCK_CHUNK_ELEMENTS // (components * math.prod(grid.shape)))
    return n_fields * len(lp.family_for(grid).block_range) > per_chunk


@pytest.fixture(params=GRIDS, ids=str)
def grid(request):
    return SpectralGrid(request.param)


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
@pytest.mark.parametrize("idx", INDICES, ids=str)
def test_time_norms_and_block_norms_equal_reference(grid, vector, idx):
    scalars = besov_corpus(grid, 40, seed=7)
    fields = [gradient(u) for u in scalars] if vector else scalars
    assert crosses_a_chunk(grid, len(fields), fields[0].data.size // math.prod(grid.shape))
    times = np.linspace(0.0, 1.3, len(fields))
    for rho in (2.0, math.inf):
        assert lp.chemin_lerner_norm(fields, times, rho, idx) \
            == ref.chemin_lerner_norm(fields, times, rho, idx)
        assert lp.iterated_time_besov_norm(fields, times, rho, idx) \
            == ref.iterated_time_besov_norm(fields, times, rho, idx)
    assert lp._besov_norms(fields, idx) == [ref.besov_norm(f, idx) for f in fields]
    for f in fields[:3]:
        assert list(lp.block_lp_norms(f, idx).values()) == ref.block_norms(f, idx)
        assert lp.besov_norm(f, idx) == ref.besov_norm(f, idx)


def test_verifiers_equal_reference(grid):
    corpus = besov_corpus(grid, 40, seed=8)
    # the gradients of a 2D corpus are vector fields
    assert crosses_a_chunk(grid, 3 * 20, 1) and crosses_a_chunk(grid, 40, grid.dim)
    assert lp.verify_derivative_equivalence(corpus) == ref.verify_derivative_equivalence(corpus)
    # (3, 4) synthesizes the blocks for both norms
    for p1, p2 in ((2.0, 4.0), (2.0, math.inf), (3.0, 4.0)):
        assert lp.verify_embedding(corpus, 1.0, p1, 2.0, p2, 2.0) \
            == ref.verify_embedding(corpus, 1.0, p1, 2.0, p2, 2.0)
    pairs = list(zip(corpus[:20], corpus[20:]))
    assert lp.verify_product_law(pairs, 1.0, 2.0, 2.0) \
        == ref.verify_product_law(pairs, 1.0, 2.0, 2.0)


def test_verifiers_on_empty_corpus():
    assert lp.verify_embedding([], 1.0, 2.0, 2.0, 4.0, 2.0) == lp.ConstantReport(0.0, 0)
    assert lp.verify_product_law([], 1.0, 2.0, 2.0) == lp.ConstantReport(0.0, 0)
    assert lp.verify_derivative_equivalence([]).n_fields == 0


def test_derivative_equivalence_checks_its_indices_first(grid):
    # a bad index raises before the corpus is looked at, so also on an empty
    # corpus and ahead of the non-finite-sample check
    bad = besov_corpus(grid, 1, seed=3)[0].data.copy()
    bad.flat[0] = np.nan
    for corpus in ([], [ScalarField(grid, bad)]):
        with pytest.raises(ConstraintViolationError):
            lp.verify_derivative_equivalence(corpus, p=0.5)


@pytest.mark.parametrize("forcing_kind", ["none", "constant", "callable"])
@pytest.mark.parametrize("rho1, rho2", [(math.inf, math.inf), (2.0, 1.0)])
def test_heat_check_equals_reference(grid, forcing_kind, rho1, rho2):
    u0 = besov_corpus(grid, 1, seed=5)[0]
    f = besov_corpus(grid, 1, seed=6)[0]
    forcing = {"none": None, "constant": f,
               "callable": lambda t: f.data * math.cos(1.7 * t)}[forcing_kind]
    n_time = 65
    assert crosses_a_chunk(grid, n_time, 1)
    args = (u0, forcing, 0.7, 1.0, 2.0, 2.0, rho1, rho2, 1.3)
    assert lp.heat_regularity_check(*args, n_time=n_time) \
        == ref.heat_regularity_check(*args, n_time=n_time)


@pytest.mark.parametrize("forcing_kind", ["none", "callable", "constant"])
def test_heat_check_memory_is_bounded_by_the_chunk(forcing_kind):
    # The solution's time steps are made as the chunks read them, so the
    # traced peak is the synthesis of about one chunk of block fields,
    # whatever n_time; only a callable forcing is held at every time sample
    # (its samples and their coefficients, about two coefficient stacks, at
    # its one forward transform).  One chunk of 2D 64^2 blocks is 256 KB;
    # u at all 129 samples would be 4.4 MB and its blocks 34 MB
    grid = SpectralGrid((64, 64))
    u0 = besov_corpus(grid, 1, seed=1)[0]
    f = besov_corpus(grid, 1, seed=2)[0]
    forcing = {"none": None, "constant": f,
               "callable": lambda t: f.data * math.cos(t)}[forcing_kind]
    stacks = 2 if forcing_kind == "callable" else 0
    chunk_bytes = lp._BLOCK_CHUNK_ELEMENTS * 8
    lp.heat_regularity_check(u0, forcing, 0.5, 1.0, 2.0, 2.0, 2.0, 1.0, 1.0, n_time=9)

    def excess(n_time):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            lp.heat_regularity_check(u0, forcing, 0.5, 1.0, 2.0, 2.0, 2.0, 1.0, 1.0,
                                     n_time=n_time)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        held = stacks * n_time * math.prod(grid.rfft_shape) * 16
        return peak - held

    small, large = excess(33), excess(129)
    assert small < 8 * chunk_bytes and large < 8 * chunk_bytes
    assert large - small < chunk_bytes / 2


def test_l2_block_norms_memory_is_bounded_by_the_field():
    # p = 2 takes one (fields, modes) product a table, each table squared as
    # it is used, so the traced peak is a few arrays the size of one 256^2
    # field's samples (512 KB): its stack, its coefficients and its power
    # spectrum times one table.  A stack of all 10 squared tables and their
    # products would add 2.6 MB and fail the bound
    grid = SpectralGrid((256, 256))
    u = besov_corpus(grid, 1, seed=1)[0]
    idx = lp.BesovIndex(1.0)
    lp.block_lp_norms(u, idx)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lp.block_lp_norms(u, idx)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 4 * u.data.nbytes


def test_heat_check_groups_keep_the_chunks_of_one_stack(fft_count):
    # the time samples go through the block synthesis in groups, which must
    # cut the (sample, block) pairs where the chunks of one stack of all
    # samples would: 65 samples of 32^2 are groups of 32, 32 and 1.  At
    # p = 2 the block norms come from the coefficients: only u0's forward
    # transform
    grid = SpectralGrid((32, 32))
    u0 = besov_corpus(grid, 1, seed=5)[0]
    n_time, blocks = 65, len(lp.family_for(grid).block_range)
    chunks = math.ceil(n_time * blocks * math.prod(grid.shape) / lp._BLOCK_CHUNK_ELEMENTS)
    for p, calls in ((2.0, 1), (3.0, 1 + chunks)):
        used = measure(fft_count, lambda: lp.heat_regularity_check(
            u0, None, 0.5, 1.0, p, 2.0, 2.0, 1.0, 1.0, n_time=n_time))
        assert used["calls"] == calls


@pytest.mark.parametrize("chunk", [50, 300, 1000])
def test_l2_block_norms_in_small_chunks_equal_reference(monkeypatch, chunk):
    # p = 2 chunks of one field (65 coefficients), of 4 of the 5 fields and
    # of all 5: the chunks of a long series, on a short one
    grid = SpectralGrid(128)
    fields = besov_corpus(grid, 5, seed=14)
    monkeypatch.setattr(lp, "_BLOCK_CHUNK_ELEMENTS", chunk)
    for idx in (lp.BesovIndex(1.0), lp.BesovIndex(0.5, 2.0, 1.0, "homogeneous-style")):
        assert lp._besov_norms(fields, idx) == [ref.besov_norm(f, idx) for f in fields]
        assert list(lp.block_lp_norms(fields[0], idx).values()) == ref.block_norms(fields[0], idx)
