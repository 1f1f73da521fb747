"""The verify checks fail on an empty corpus rather than pass vacuously,
measure each field once, and give the values of the plain computation that
measures the first part of a corpus again inside the whole."""

import pytest

from kortorus import littlewood_paley as lp
from kortorus import verify
from kortorus.scenarios import besov_corpus
from kortorus.spectral import SpectralGrid
from helpers import measure

EMPTY = {
    "capillary gap": lambda: verify.check_capillary_gap([]),
    "Laplacian of log": lambda: verify.check_laplacian_log([]),
    "integration by parts": lambda: verify.check_integration_by_parts([]),
    "dyadic structure, no grid": lambda: verify.check_dyadic_structure([], 0.5),
    "dyadic structure, no field": lambda: list(verify.check_dyadic_structure(
        [(SpectralGrid(64), [], ((1, 4),))], 0.5))[2:],
    "norm equivalences": lambda: verify.check_norm_equivalences([], [], []),
}


@pytest.mark.parametrize("check", EMPTY.values(), ids=EMPTY.keys())
def test_empty_corpus_fails(check):
    results = list(check())
    assert results and not any(r.passed for r in results)
    assert all(r.line().startswith("FAIL") for r in results)


@pytest.fixture
def besov_calls(monkeypatch):
    """Calls of littlewood_paley.besov_norm, from verify and from the verifiers."""
    count = {"calls": 0}
    besov_norm = lp.besov_norm

    def counted(*args, **kwargs):
        count["calls"] += 1
        return besov_norm(*args, **kwargs)
    monkeypatch.setattr(lp, "besov_norm", counted)
    return count


# no field is measured one call at a time: the corpus sweeps and the heat
# check's time samples go through the stacked block norms
@pytest.mark.parametrize("suite, budget", [("lp-norms", 0), ("heat", 0)])
def test_besov_norm_budget(besov_calls, suite, budget):
    results = verify.run_suite(suite, seed=0)
    assert all(r.passed for r in results)
    assert besov_calls["calls"] == budget


# every corpus is built, and every sweep over one measured, in one pass: a
# per-field path (a draw, a transform or a gradient round trip a field)
# would add calls here, and so would synthesizing a p = 2 block norm's
# blocks, which come from the coefficients
@pytest.mark.parametrize("suite, calls", [("appendix", 336), ("entropy", 116),
                                          ("lp-partition", 21), ("lp-norms", 161),
                                          ("heat", 35)])
@pytest.mark.parametrize("seed", [0, 1])
def test_fft_budget_per_seed(fft_count, suite, calls, seed):
    used = measure(fft_count, lambda: verify.run_suite(suite, seed))
    assert used["calls"] == calls


def test_lp_norms_values_match_whole_corpus_reference():
    seed = 2
    results = {r.name: r for r in verify.run_suite("lp-norms", seed)}
    grid = SpectralGrid(128)
    doubled = besov_corpus(grid, 200, seed=seed + 30)
    corpus = doubled[:100]
    refined = besov_corpus(SpectralGrid(256), 100, seed=seed + 31)

    pairs = list(zip(corpus[:50], corpus[50:]))

    def embedding(c):
        return lp.verify_embedding(c, 1.0, 2.0, 2.0, 4.0, 2.0).worst_constant

    def product(c):
        return lp.verify_product_law(c, 1.0, 2.0, 2.0).worst_constant

    # the drift of the worst constant from the first part to the whole
    assert results["embedding constant finite and stable"].value \
        == embedding(corpus) / embedding(corpus[:50])
    assert results["product-law constant finite and stable"].value \
        == product(pairs) / product(pairs[:25])

    base, *grown = (lp.verify_derivative_equivalence(c, 1.0, 2.0, 2.0).constant
                    for c in (corpus, doubled, refined))
    assert results["derivative-equivalence constant drift under doubling"].value \
        == max(max(g / base, base / g) for g in grown)
