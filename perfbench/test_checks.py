"""Each output check rejects a doctored output and accepts a sound one.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import run

AREA = (2.0 * math.pi) ** 2
MEAN = 1.2


def evolve2d_output(steps=200, t_end=0.2):
    rows = []
    for i in range(steps + 1):
        rows.append({"time": t_end * i / steps, "mass": MEAN * AREA,
                     "effective_energy": 10.0 - 0.01 * i,
                     "serrin_accumulator": 0.5 * i / steps})
    summary = {"status": "completed", "steps": steps,
               "verdict": {"serrin_value": rows[-1]["serrin_accumulator"]}}
    return summary, rows


def evolve2d_problems(summary, rows):
    return checks.check_evolve2d(summary, rows, steps=200, t_end=0.2,
                                 mean=MEAN, area=AREA)


def test_evolve2d_accepts_sound_output():
    assert evolve2d_problems(*evolve2d_output()) == []


def test_evolve2d_rejects_mass_off_by_1e9():
    summary, rows = evolve2d_output()
    rows[57]["mass"] *= 1.0 + 1e-9
    assert any("mass" in p for p in evolve2d_problems(summary, rows))


def test_evolve2d_rejects_one_rising_energy_row():
    summary, rows = evolve2d_output()
    rows[120]["effective_energy"] = rows[119]["effective_energy"] * (1.0 + 1e-9)
    assert any("effective_energy rose" in p for p in evolve2d_problems(summary, rows))


def test_evolve2d_rejects_verdict_serrin_mismatch():
    summary, rows = evolve2d_output()
    summary["verdict"]["serrin_value"] *= 1.0 + 1e-9
    assert any("serrin" in p for p in evolve2d_problems(summary, rows))


def test_evolve2d_rejects_short_run():
    summary, rows = evolve2d_output(steps=199, t_end=0.199)
    problems = evolve2d_problems(summary, rows)
    assert any("steps" in p for p in problems)
    assert any("ended at" in p for p in problems)


def test_csv_rows_round_trip():
    rows = checks.read_csv_rows("time,mass\n0.0,1.5\n0.1,1.5\n")
    assert rows == [{"time": 0.0, "mass": 1.5}, {"time": 0.1, "mass": 1.5}]


def test_ms1d_closed_form_matches_program_solution():
    from kortorus.scenarios import manufactured_solution
    from kortorus.spectral import SpectralGrid

    state = manufactured_solution("ms1d").state(SpectralGrid(64), 0.4)
    rho, v = checks.ms1d_exact(0.4, 64)
    assert np.max(np.abs(state.rho.data - rho)) < 1e-14
    assert np.max(np.abs(state.w.data[0] - v)) < 1e-14


MIN_ORDER = {"imex_euler": 0.9, "imex_bdf2": 1.8}


def test_convergence_accepts_first_and_second_order():
    errors = {"imex_euler": [4e-3, 2e-3, 1e-3], "imex_bdf2": [4e-4, 1e-4, 2.5e-5]}
    assert checks.check_convergence(errors, MIN_ORDER) == []


@pytest.mark.parametrize("errors", [
    {"imex_euler": [4e-3, 2e-3, 1e-3], "imex_bdf2": [4e-4, 2e-4, 1e-4]},
    {"imex_euler": [4e-3, 2e-3, 1.5e-3], "imex_bdf2": [4e-4, 1e-4, 2.5e-5]},
    {"imex_euler": [4e-3, math.nan, 1e-3], "imex_bdf2": [4e-4, 1e-4, 2.5e-5]},
])
def test_convergence_rejects_wrong_order(errors):
    assert checks.check_convergence(errors, MIN_ORDER) != []


def test_mass_check_threshold():
    assert checks.check_mass([2.0, 2.0 * (1 + 1e-13)], 1e-12, "run") == []
    assert checks.check_mass([2.0, 2.0 * (1 + 1e-9)], 1e-12, "run") != []


def squeeze_output():
    vacuum = [1.0, 2.0, 12.0, 30.0]
    masses = [3.0] * 4
    return "PositivityLoss", vacuum, masses


def test_squeeze_accepts_sound_output():
    assert checks.check_squeeze(*squeeze_output()) == []


def test_squeeze_rejects_run_without_blowup():
    _, vacuum, masses = squeeze_output()
    assert checks.check_squeeze("completed", vacuum, masses) != []


def test_squeeze_rejects_crossing_only_at_last_report():
    ended, _, masses = squeeze_output()
    assert checks.check_squeeze(ended, [1.0, 2.0, 5.0, 30.0], masses) != []


def test_squeeze_rejects_mass_drift():
    ended, vacuum, masses = squeeze_output()
    masses[-1] *= 1.0 + 1e-9
    assert checks.check_squeeze(ended, vacuum, masses) != []


def verify_lines(n=24):
    return [f"PASS  check {i}: value=0 tol=1" for i in range(n)]


def test_verify_accepts_all_pass():
    assert checks.check_verify(0, verify_lines(), 24) == []


def test_verify_rejects_one_fail_missing_check_and_exit_code():
    lines = verify_lines()
    lines[5] = "FAIL" + lines[5][4:]
    assert checks.check_verify(1, lines, 24) != []
    assert checks.check_verify(0, lines, 24) != []
    assert checks.check_verify(0, verify_lines(23), 24) != []


def test_every_workload_has_a_setup_sample_count():
    spec = json.loads((Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.SETUP_SAMPLES)
