"""The verify checks fail on an empty corpus rather than pass vacuously."""

import pytest

from kortorus import verify
from kortorus.spectral import SpectralGrid

EMPTY = {
    "capillary gap": lambda: verify.check_capillary_gap([]),
    "Laplacian of log": lambda: verify.check_laplacian_log([]),
    "integration by parts": lambda: verify.check_integration_by_parts([]),
    "dyadic structure, no grid": lambda: verify.check_dyadic_structure([], 0.5),
    "dyadic structure, no field": lambda: list(verify.check_dyadic_structure(
        [(SpectralGrid(64), [], ((1, 4),))], 0.5))[2:],
    "norm equivalences": lambda: verify.check_norm_equivalences([], [], [], []),
}


@pytest.mark.parametrize("check", EMPTY.values(), ids=EMPTY.keys())
def test_empty_corpus_fails(check):
    results = list(check())
    assert results and not any(r.passed for r in results)
    assert all(r.line().startswith("FAIL") for r in results)
