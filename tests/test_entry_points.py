"""Pins of what callers build on: the call signatures of the README library
entry points, and the samples of the seeded corpora that the verify suites
and tests measure.  A change to either belongs in CHANGES.md."""

import hashlib
import inspect
import re

import numpy as np
import pytest

import kortorus
from kortorus.scenarios import besov_corpus, density_corpus, velocity_corpus
from kortorus.spectral import SpectralGrid

from helpers import readme_blocks

# parameter names and defaults; annotations are left out
README_SIGNATURES = {
    "SpectralGrid": "(resolution, length=None)",
    "ModelParams": "(mu, alpha, kappa, a, gamma, variant='original')",
    "FieldState": "(rho, w, time=0.0)",
    "IntegratorConfig": "(dt_initial, dt_min, t_end, cfl_safety=0.9, scheme='imex_euler', "
                        "snapshot_interval=None, adaptive=True)",
    "MonitorSpec": "(delta=0.5, p_integrability=4.0, p_vacuum=2.0, serrin_p=4.0, "
                   "serrin_q=None, epsilon=0.01, delta_vacuum=0.1)",
    "run": "(initial, params, config, monitors=None, forcing=None, trajectory=None)",
    "step": "(state, params, config, dt, forcing=None)",
    "cfl_dt": "(state, params, config)",
    "rhs": "(state, params)",
    "korteweg_div_general": "(rho, law)",
    "korteweg_div_special": "(rho, kappa)",
    "effective_velocity": "(rho, u, params)",
    "recover_u": "(rho, v, params)",
    "energy": "(state, params)",
    "bd_entropy": "(state, params)",
    "mv_entropy": "(state, params, delta)",
    "integrability_functional": "(state, params, p)",
    "vacuum_functional": "(state, params, p)",
    "serrin_accumulator": "(trajectory, p, q)",
    "vacuum_indicator": "(state_or_rho, eps, delta)",
    "blow_up_verdict": "(trajectory, params, monitors=None)",
    "build_dyadic_family": "(grid)",
    "dyadic_block": "(u, q)",
    "besov_norm": "(u, idx)",
    "chemin_lerner_norm": "(fields, times, rho_exp, idx)",
    "heat_regularity_check": "(u0, forcing, mu, s, p, r, rho1, rho2, T, n_time=257)",
}


def _readme_import_names() -> list[str]:
    (block,) = [b for b in readme_blocks("python") if "from kortorus import" in b]
    return re.findall(r"\w+", block.split("(", 1)[1])


def _call_signature(obj) -> str:
    sig = inspect.signature(obj)
    return str(sig.replace(
        parameters=[p.replace(annotation=p.empty) for p in sig.parameters.values()],
        return_annotation=sig.empty))


def test_readme_entry_point_signatures():
    names = _readme_import_names()
    assert sorted(names) == sorted(README_SIGNATURES)
    assert {name: _call_signature(getattr(kortorus, name)) for name in names} \
        == README_SIGNATURES


CORPUS_DIGESTS = {
    "besov": ("0e54dbe1f3fce453620cd68082368b53f064262b00694499a9d29f299dc8493f",
              lambda: besov_corpus(SpectralGrid(128), 3, seed=30)),
    "density": ("557d0a25240a4249262724aa33f655a4484b480658860dd392b2f2bb7985d9e2",
                lambda: density_corpus(SpectralGrid(256), 2, seed=0)),
    "velocity": ("c46b4d0d3edef3c532d5df75cd5a3a383fa8fecf2f97efe1a4c3f8f16bd3114a",
                 lambda: velocity_corpus(SpectralGrid((64, 64)), 2, seed=12,
                                         amplitude=1.0, kmax=4)),
}


@pytest.mark.parametrize("name", sorted(CORPUS_DIGESTS))
def test_seeded_corpus_samples_pinned(name):
    digest, build = CORPUS_DIGESTS[name]
    samples = np.stack([f.data for f in build()]).astype("<f8")
    assert hashlib.sha256(samples.tobytes()).hexdigest() == digest
