"""Each monitored quantity is one column: no two ``functionals.csv``
columns agree in every row of a run, and the README lists the columns and
the schema version that the code writes."""

import itertools
import re

import pytest

from kortorus import timestepping
from kortorus.functionals import COLUMNS, SCHEMA_VERSION
from kortorus.model import ModelParams
from kortorus.scenarios import initial_state
from kortorus.spectral import SpectralGrid
from kortorus.timestepping import IntegratorConfig
from helpers import EVOLVE2D_INITIAL, EVOLVE2D_PARAMS, README

#: (params, resolution, dt, steps) of each run, from the random_smooth state
#: of seed 3 with the evolve2d workload's initial parameters.  The models
#: are the evolve2d workload's two; with (kappa / mu) (gamma - 1) = 1,
#: eff_energy_rate_pressure and bd_rate_cross would be one integral.
RUNS = {
    "effective_v2 32^2": (EVOLVE2D_PARAMS, (32, 32), 1e-3, 20),
    "original N = 64": (ModelParams(mu=0.1, alpha=0.02, kappa=0.01, a=1.0, gamma=2.0,
                                    variant="original"), 64, 2.5e-4, 100),
}


def agreeing_pairs(reports, rel=1e-12) -> list[tuple[str, str]]:
    """The pairs of columns of the report table ``reports`` that agree to
    ``rel`` relative in every row."""
    columns = {name: reports.column(name).tolist() for name in COLUMNS}
    return [(a, b) for a, b in itertools.combinations(columns, 2)
            if all(abs(x - y) <= rel * max(abs(x), abs(y))
                   for x, y in zip(columns[a], columns[b]))]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_no_two_report_columns_agree(name):
    params, resolution, dt, steps = RUNS[name]
    state = initial_state(SpectralGrid(resolution), "random_smooth", EVOLVE2D_INITIAL, seed=3)
    trajectory = timestepping.run(state, params, IntegratorConfig(
        dt_initial=dt, dt_min=1e-9, t_end=steps * dt, scheme="imex_bdf2", adaptive=False))
    assert len(trajectory.reports) == steps + 1
    assert agreeing_pairs(trajectory.reports) == []


def test_readme_lists_the_written_columns_and_schema_version():
    (version,) = re.findall(r"### Outputs \(schema version (\d+)\)", README)
    assert int(version) == SCHEMA_VERSION
    (listed,) = re.findall(r"`functionals\.csv` - one row per accepted step; columns, in "
                           r"order:\s+`([^`]*)`", README)
    assert re.split(r",\s*", listed) == list(COLUMNS)
