"""The records a run makes per accepted step hold their data and nothing
else: the slotted classes carry no per-instance ``__dict__``, a kept state
and its report cost what their arrays and floats do, and two report
streams of the ``study1d`` benchmark workload keep the bits they had
before the records were slotted."""

import numpy as np
import pytest

from kortorus.spectral import TensorField
from kortorus.timestepping import Stepper
from helpers import (
    SQUEEZE_CONFIG,
    SQUEEZE_PARAMS,
    kept_bytes,
    ms1d_run,
    report_digest,
    squeeze_run,
)

#: ``report_digest`` of the reports of ``squeeze_run(0)`` (182 reports, the
#: run ends in PositivityLoss) and of ``ms1d_run("imex_bdf2", 160)`` (161),
#: with the columns of schema version 2 and the Serrin trapezoid over the
#: report times; a change that moves a column moves these (known to hold on
#: one numpy build and host)
SQUEEZE_DIGEST = "504248f2123b412602471c13a34a42b7bed71850ba81a8dc602cccbb3783c1ce"
MS1D_BDF2_160_DIGEST = "9af5e7e7b1357bf4811fb6580f4945b70f178ecb5d14b3e26aa066f663822081"


@pytest.fixture(scope="module")
def squeeze():
    return squeeze_run(0)


def test_per_step_records_have_no_instance_dict(squeeze):
    state = squeeze.states[-1]
    run_state = Stepper(state, SQUEEZE_PARAMS, SQUEEZE_CONFIG).run_state
    records = [squeeze.reports, squeeze.reports[-1], squeeze.terminated, state, state.rho,
               state.w, TensorField(state.grid, np.zeros((1, 1) + state.grid.shape)),
               run_state, run_state.levels[0]]
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_a_kept_state_and_its_report_hold_their_data():
    """Traced bytes a kept state and its report hold at 1D N = 64: 3,951
    with an instance ``__dict__`` in each record, 2,485 slotted, 2,419 with
    the two fewer columns of schema version 2, and 1,836 with the reports
    in one table (a float64 column a report, about 220 B with the table's
    spare room) and the state's rho and w views of one array (1,024 B of
    samples), where a report object and two sample arrays took about 670
    and 1,216 B."""
    assert kept_bytes(64, 500) <= 1950


def test_report_streams_keep_their_bits(squeeze):
    assert len(squeeze.reports) == 182 and squeeze.terminated.kind == "PositivityLoss"
    assert report_digest(squeeze.reports) == SQUEEZE_DIGEST
    ms1d = ms1d_run("imex_bdf2", 160)
    assert len(ms1d.reports) == 161
    assert report_digest(ms1d.reports) == MS1D_BDF2_160_DIGEST
