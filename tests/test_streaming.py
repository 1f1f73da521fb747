"""``kortorus simulate`` streams its outputs: a run stopped part way leaves
files that parse, memory does not grow with the step count, and the streamed
files are byte-identical to what the bulk writers make of a library run()."""

import contextlib
import io
import json
import tracemalloc

import pytest

from kortorus import cli
from kortorus.config import parse_config
from kortorus.errors import NonFinite, PositivityLoss, StepUnderflow
from kortorus.functionals import COLUMNS
from kortorus.scenarios import initial_state
from kortorus.timestepping import Stepper, run
from helpers import read_snapshots

RANDOM_2D = {"family": "random_smooth", "seed": 7,
             "params": {"mean": 1.2, "amplitude": 0.25, "velocity_amplitude": 0.3}}
MODEL_2D = {"variant": "effective_v2", "mu": 0.1, "kappa": 0.01, "a": 1.0}

CONFIGS = {
    "clean_2d": {
        "grid": {"resolution": [32, 32]}, "model": MODEL_2D,
        "integrator": {"scheme": "imex_bdf2", "dt_initial": 1e-3, "t_end": 0.02},
        "initial": RANDOM_2D},
    # the README's vacuum squeeze: PositivityLoss, exit 1
    "squeeze": {
        "grid": {"resolution": [64]},
        "model": {"variant": "effective_v2", "mu": 0.05, "kappa": 0.0025, "a": 0.01},
        "integrator": {"dt_initial": 0.002, "dt_min": 1e-10, "t_end": 3.0,
                       "cfl_safety": 0.5},
        "initial": {"family": "gaussian_bump",
                    "params": {"mean": 1.0, "depth": 0.95, "width": 0.4,
                               "velocity_amplitude": 2.8}},
        "monitors": {"epsilon": 0.75, "delta_vacuum": 0.25}},
    "cadence": {
        "grid": {"resolution": [32, 32]}, "model": MODEL_2D,
        "integrator": {"scheme": "imex_bdf2", "dt_initial": 1e-3, "t_end": 0.03,
                       "snapshot_interval": 0.0075},
        "initial": RANDOM_2D},
    "write_fields": {
        "grid": {"resolution": [64]},
        "model": {"variant": "original", "mu": 1.0, "alpha": 0.2, "kappa": 0.5},
        "integrator": {"scheme": "imex_bdf2", "dt_initial": 1e-3, "t_end": 0.02},
        "initial": {"family": "random_smooth", "seed": 5,
                    "params": {"mean": 1.5, "amplitude": 0.3, "velocity_amplitude": 0.3}},
        "output": {"write_fields": True}},
}


def simulate(tmp_path, doc, name="out"):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / name
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["simulate", str(path), "--output", str(out)])
    return code, out


def library_run(doc):
    """The config of ``doc``, the trajectory of a library run() of it and
    the error info ``simulate`` reports for how it ended."""
    config = parse_config(json.dumps(doc))
    state0 = initial_state(config.grid, config.initial.family, config.initial.params,
                           seed=config.initial.seed)
    try:
        traj = run(state0, config.model, config.integrator, config.monitors,
                   forcing=cli._forcing_for(config))
    except (PositivityLoss, StepUnderflow, NonFinite) as exc:
        return config, exc.trajectory, {"kind": type(exc).__name__, "message": str(exc)}
    return config, traj, None


def bulk_outputs(doc, outdir):
    """The outputs of a library run() of ``doc``, written after it ended by
    the writers with whole report and state lists."""
    config, traj, error_info = library_run(doc)
    outdir.mkdir()
    with open(outdir / "functionals.csv", "w") as out:
        cli._write_csv(out, traj.reports)
    with open(outdir / "functionals.jsonl", "w") as out:
        cli._write_jsonl(out, traj.reports)
    if config.output.write_fields or config.integrator.snapshot_interval is not None:
        index = []
        cli._write_snapshots(outdir, traj.states, index)
        cli._write_index(outdir, index)
    (outdir / "summary.json").write_text(
        cli._json_dumps(cli._summary(config, traj, error_info, None)))
    return traj, error_info


def files_under(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_streamed_outputs_match_bulk_writers(tmp_path, name):
    doc = CONFIGS[name]
    code, out = simulate(tmp_path, doc)
    traj, error_info = bulk_outputs(doc, tmp_path / "bulk")
    assert code == (1 if error_info else 0)
    streamed = files_under(out)
    echo = parse_config(json.dumps(doc)).serialize().encode()
    assert streamed.pop("config.echo.json") == echo
    bulk = files_under(tmp_path / "bulk")
    assert sorted(streamed) == sorted(bulk)
    for rel in bulk:
        assert streamed[rel] == bulk[rel], rel
    summary = json.loads(streamed["summary.json"])
    assert summary["snapshots"] == traj.snapshots == len(traj.states)
    if "snapshots/index.json" in bulk:
        # the index text is assembled from per-entry text; it must read as
        # the canonical dump of its own content
        index = streamed["snapshots/index.json"].decode()
        assert index == cli._json_dumps(json.loads(index))
        assert len(json.loads(index)["snapshots"]) == traj.snapshots
    if name == "squeeze":
        assert summary["error"]["kind"] == "PositivityLoss"
    if name == "cadence":
        assert summary["snapshots"] == 5 and summary["steps"] == 30


class Killed(Exception):
    pass


def kill_after(monkeypatch, accepted):
    """Make Stepper.advance raise once ``accepted`` steps have gone through."""
    advance = Stepper.advance
    count = {"accepted": 0}

    def killing(self, dt):
        if count["accepted"] == accepted:
            raise Killed
        state = advance(self, dt)
        count["accepted"] += 1
        return state
    monkeypatch.setattr(Stepper, "advance", killing)


def assert_reports_parse(out, rows):
    lines = (out / "functionals.csv").read_text().splitlines()
    header = COLUMNS
    assert lines[0].split(",") == list(header)
    assert len(lines) == rows + 1
    for line in lines[1:]:
        values = [float(x) for x in line.split(",")]
        assert len(values) == len(header)
    records = [json.loads(line)
               for line in (out / "functionals.jsonl").read_text().splitlines()]
    assert len(records) == rows
    assert [r["time"] for r in records] == [float(line.split(",")[0]) for line in lines[1:]]


@pytest.mark.parametrize("name", ["clean_2d", "cadence"])
def test_killed_run_leaves_valid_partial_output(tmp_path, monkeypatch, name):
    steps = 17
    _, full, _ = library_run(CONFIGS[name])
    kill_after(monkeypatch, steps)
    with pytest.raises(Killed):
        simulate(tmp_path, CONFIGS[name])
    out = tmp_path / "out"
    assert_reports_parse(out, steps + 1)
    assert not (out / "summary.json").exists()
    if name == "cadence":
        # the snapshots of the whole run taken before the kill at t = 0.017
        kept = [t for t in full.times if t < 0.0175]
        assert len(kept) == 3
        assert [s.time for s in read_snapshots(out)] == kept


def test_snapshot_index_names_only_complete_dumps(tmp_path, monkeypatch):
    # a dump that fails half way through the third snapshot (rho written,
    # w0 not) must not appear in the index
    dump = cli.write_field_dump
    calls = {"n": 0}

    def failing(path, field):
        calls["n"] += 1
        if calls["n"] == 2 * 3 + 2:
            raise Killed
        dump(path, field)
    monkeypatch.setattr(cli, "write_field_dump", failing)
    with pytest.raises(Killed):
        simulate(tmp_path, CONFIGS["cadence"])
    snapdir = tmp_path / "out" / "snapshots"
    index = json.loads((snapdir / "index.json").read_text())["snapshots"]
    assert len(index) == 2
    for entry in index:
        for name in [entry["rho"], *entry["w"]]:
            assert (snapdir / name).is_file()
    assert not (snapdir / "index.json.tmp").exists()
    assert len(read_snapshots(tmp_path / "out")) == 2


def test_snapshot_index_is_replaced_once_per_recorded_batch(tmp_path, monkeypatch):
    # 100 steps that dump every state: the initial report and 4 batches of 32
    # or fewer, not one replacement per snapshot
    replaced, recorded = [], []
    replace, record = cli.os.replace, cli._StreamedTrajectory.record
    monkeypatch.setattr(cli.os, "replace", lambda *paths: (replaced.append(paths),
                                                           replace(*paths)))

    def counting(self, table):
        recorded.append(len(table))
        record(self, table)
    monkeypatch.setattr(cli._StreamedTrajectory, "record", counting)
    doc = dict(CONFIGS["write_fields"], integrator={"scheme": "imex_bdf2", "dt_initial": 1e-3,
                                                   "t_end": 0.1})
    code, out = simulate(tmp_path, doc)
    assert code == 0
    assert recorded == [1, 32, 32, 32, 4]
    assert len(replaced) == len(recorded)
    index = json.loads((out / "snapshots" / "index.json").read_text())["snapshots"]
    assert len(index) == sum(recorded)


def test_positivity_loss_leaves_an_index_of_complete_dumps(tmp_path):
    doc = dict(CONFIGS["squeeze"], output={"write_fields": True})
    code, out = simulate(tmp_path, doc)
    summary = json.loads((out / "summary.json").read_text())
    assert code == 1 and summary["error"]["kind"] == "PositivityLoss"
    snapdir = out / "snapshots"
    entries = json.loads((snapdir / "index.json").read_text())["snapshots"]
    assert len(entries) == summary["snapshots"] == summary["steps"] + 1
    named = [name for entry in entries for name in [entry["rho"], *entry["w"]]]
    assert sorted(named) == sorted(p.name for p in snapdir.glob("*.fld"))
    assert [s.time for s in read_snapshots(out)] == [e["time"] for e in entries]


def test_simulate_memory_does_not_grow_with_steps(tmp_path):
    def peak_mb(steps):
        doc = {"grid": {"resolution": [64, 64]}, "model": MODEL_2D,
               "integrator": {"scheme": "imex_bdf2", "dt_initial": 1e-3,
                              "t_end": steps * 1e-3},
               "initial": RANDOM_2D}
        tracemalloc.start()
        try:
            assert simulate(tmp_path, doc, name=f"steps{steps}")[0] == 0
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    peak_mb(3)  # first-call caches out of the way
    short, long = peak_mb(20), peak_mb(80)
    # one 64^2 state is about 0.1 MB; holding every state grew the peak by 6 MB
    assert long - short <= 0.5, (short, long)
