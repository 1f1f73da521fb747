"""The report stream as one table: a run's ``ReportTable`` grows through
several doublings a batch at a time, each column read by name is its
reports' values to the bit, and ``diverged`` stays per report."""

import math

import numpy as np
import pytest

from kortorus.errors import NonFinite
from kortorus.functionals import COLUMNS, FunctionalReport, ReportTable
from kortorus.model import FieldState, ModelParams
from kortorus.scenarios import initial_state
from kortorus.spectral import ScalarField, SpectralGrid, VectorField
from kortorus.timestepping import IntegratorConfig, run

PARAMS = ModelParams(mu=0.1, alpha=0.0, kappa=0.01, a=1.0, gamma=2.0, variant="effective_v2")


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def row(report: FunctionalReport):
    """A report's values as bits (so that nan equals nan) and its names."""
    return bits([getattr(report, name) for name in COLUMNS]), report.diverged


def assert_columns_are_their_reports(table: ReportTable):
    reports = list(table)
    assert len(reports) == len(table)
    for name in COLUMNS:
        assert bits(table.column(name)) == bits([getattr(r, name) for r in reports]), name
    assert table.diverged == [r.diverged for r in reports]
    assert row(table[-1]) == row(reports[-1]) and row(table[-len(table)]) == row(reports[0])
    with pytest.raises(IndexError):
        table[len(table)]


@pytest.mark.parametrize("resolution,steps,per_batch", [((64, 64), 20, 1), (64, 200, 32)],
                         ids=["2d", "1d"])
def test_a_run_grows_its_table_by_doubling(resolution, steps, per_batch):
    state = initial_state(SpectralGrid(resolution), "random_smooth",
                          {"mean": 1.2, "amplitude": 0.25, "velocity_amplitude": 0.3}, seed=4)
    table = run(state, PARAMS, IntegratorConfig(dt_initial=1e-3, dt_min=1e-9,
                                                t_end=steps * 1e-3, adaptive=False)).reports
    assert len(table) == steps + 1
    # the initial report, then batches of ``per_batch``: each batch that
    # outgrows the table doubles it, or takes just the room it needs
    capacity = 1
    for stop in range(1 + per_batch, steps + 1 + per_batch, per_batch):
        stop = min(stop, steps + 1)
        if stop > capacity:
            capacity = max(stop, 2 * capacity)
    assert table._data.shape[1] == capacity > 2 * per_batch
    assert_columns_are_their_reports(table)
    # a column is a view of the one table
    assert table.column("mass").base is table.column("time").base is table._data


def test_diverged_stays_per_report():
    """The overflow case of ``test_report_batched``: a density source of
    1e307 keeps the states finite, but ``mv_rhs_bound``'s power overflows
    from the first step on, and the run ends as NonFinite."""
    grid = SpectralGrid(8)
    state = FieldState(ScalarField(grid, np.ones(8)), VectorField(grid, np.zeros((1, 8))))
    params = ModelParams(mu=1.0, alpha=0.0, kappa=1.0, a=1.0, gamma=1.0, variant="effective_v2")
    sources = (np.full(8, 1e307), np.zeros((1, 8)))
    config = IntegratorConfig(dt_initial=1.0, dt_min=1.0, t_end=4.0, adaptive=False)
    with pytest.raises(NonFinite) as info:
        run(state, params, config, forcing=lambda t: sources)
    table = info.value.trajectory.reports
    assert len(table) >= 3 and table.diverged[0] == ()
    assert all("mv_rhs_bound" in names for names in table.diverged[1:])
    for i, names in enumerate(table.diverged):
        assert set(names) == {name for name in COLUMNS
                              if not math.isfinite(table.column(name)[i])}
    assert_columns_are_their_reports(table)
    # a table extended by another keeps each report's names
    joined = ReportTable()
    joined.extend(table)
    joined.extend(table)
    assert joined.diverged == table.diverged * 2
    assert bits(joined.column("mv_rhs_bound")) == bits(list(table.column("mv_rhs_bound")) * 2)
