"""The seeded corpora, built in one pass per corpus, against the one-field-
at-a-time reference in ``corpus_reference``, held with == on the bits, and
the rng each leaves behind against the reference's."""

import numpy as np
import pytest

import corpus_reference as ref
import lp_reference
from kortorus import littlewood_paley as lp
from kortorus.errors import InvalidField
from kortorus.scenarios import (
    besov_corpus,
    density_corpus,
    initial_state,
    random_spectrum_fields,
    random_trig_field,
    random_trig_fields,
    velocity_corpus,
)
from kortorus.spectral import ScalarField, SpectralGrid

GRIDS = [64, 256, (16, 32), (32, 32)]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_fields(got, expected) -> bool:
    return len(got) == len(expected) and all(
        same_bits(g.data, e.data) for g, e in zip(got, expected))


def rng_pair(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def same_next_draw(rng, rng_ref) -> bool:
    return rng.bit_generator.state == rng_ref.bit_generator.state \
        and rng.normal() == rng_ref.normal()


@pytest.fixture(params=GRIDS, ids=str)
def grid(request):
    return SpectralGrid(request.param)


@pytest.mark.parametrize("count", [1, 5])
@pytest.mark.parametrize("normalize", ["max", "coeff"])
@pytest.mark.parametrize("kmax", [3, 4])
def test_trig_fields_equal_the_field_by_field_reference(grid, count, normalize, kmax):
    rng, rng_ref = rng_pair(count + kmax)
    got = random_trig_fields(grid, rng, count, kmax=kmax, decay=0.6, normalize=normalize)
    expected = [ref.random_trig_field(grid, rng_ref, kmax=kmax, decay=0.6, normalize=normalize)
                for _ in range(count)]
    assert got.shape == (count,) + grid.shape
    assert all(map(same_bits, got, expected))
    assert same_next_draw(rng, rng_ref)
    one = random_trig_field(grid, rng, kmax=kmax, normalize=normalize)
    assert same_bits(one, ref.random_trig_field(grid, rng_ref, kmax=kmax, normalize=normalize))
    assert same_next_draw(rng, rng_ref)


@pytest.mark.parametrize("count", [1, 7])
def test_spectrum_fields_equal_the_field_by_field_reference(grid, count):
    rng, rng_ref = rng_pair(count)
    got = random_spectrum_fields(grid, rng, count)
    assert all(map(same_bits, got, [ref.random_spectrum_field(grid, rng_ref)
                                    for _ in range(count)]))
    assert same_next_draw(rng, rng_ref)


@pytest.mark.parametrize("count", [1, 4])
def test_corpora_equal_the_field_by_field_reference(grid, count):
    assert same_fields(density_corpus(grid, count, seed=3, lo=1.0, hi=2.0),
                       ref.density_corpus(grid, count, np.random.default_rng(3), 1.0, 2.0))
    for kmax in (3, 4):
        assert same_fields(velocity_corpus(grid, count, seed=4, amplitude=0.7, kmax=kmax),
                           ref.velocity_corpus(grid, count, np.random.default_rng(4), 0.7, kmax))
    assert same_fields(besov_corpus(grid, count, seed=5),
                       ref.besov_corpus(grid, count, np.random.default_rng(5)))


@pytest.mark.parametrize("modes, velocity_modes", [(3, 3), (4, 2), (2, 4)])
def test_random_smooth_equals_the_field_by_field_reference(grid, modes, velocity_modes):
    params = {"mean": 1.2, "amplitude": 0.25, "velocity_amplitude": 0.3, "modes": modes,
              "velocity_modes": velocity_modes, "decay": 0.5}
    state = initial_state(grid, "random_smooth", params, seed=9)
    expected = ref.random_smooth(grid, np.random.default_rng(9), 1.2, 0.25, modes, 0.5,
                                 0.3, velocity_modes)
    assert same_bits(state.rho.data, expected.rho.data)
    assert same_bits(state.w.data, expected.w.data)


@pytest.mark.parametrize("count", [1, 40])
def test_batched_gradients_equal_the_per_field_loop(monkeypatch, grid, count):
    """The gradients that verify_derivative_equivalence measures, caught at
    their one inverse transform, are the per-field gradients, and so is the
    report."""
    corpus = besov_corpus(grid, count, seed=11)
    inverses = []
    to_physical = lp.to_physical
    monkeypatch.setattr(lp, "to_physical",
                        lambda hat, g: inverses.append(to_physical(hat, g)) or inverses[-1])
    assert lp.verify_derivative_equivalence(corpus) \
        == lp_reference.verify_derivative_equivalence(corpus)
    grads = np.moveaxis(inverses[0], 0, 1)
    assert all(same_bits(g, e.data) for g, e in zip(grads, ref.centred_gradients(corpus)))
    assert len(grads) == count


def test_non_finite_sample_raises_invalid_field(grid):
    corpus = besov_corpus(grid, 3, seed=12)
    bad = corpus[1].data.copy()
    bad.flat[5] = np.nan
    with pytest.raises(InvalidField):
        lp.verify_derivative_equivalence([corpus[0], ScalarField(grid, bad), corpus[2]])
