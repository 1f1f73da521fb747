"""Command-line surface: simulate, verify, besov, monitor.

Exit codes: 0 success, 1 numerical failure or blow-up (or failed checks),
2 usage/config error.  Relative output directories resolve against
$KORTORUS_OUTPUT_ROOT when it is set.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import textwrap
from pathlib import Path
from typing import TextIO

import numpy as np

from .config import ScenarioConfig, parse_config
from .dump import read_field_dump, write_field_dump
from .errors import (
    ConstraintViolationError,
    DumpFormatError,
    InvalidField,
    KortorusError,
    NonFinite,
    NonpositiveDensity,
    ParseError,
    PositivityLoss,
    ResolutionTooSmall,
    StepUnderflow,
)
from .functionals import (
    COLUMNS,
    SCHEMA_VERSION,
    ReportTable,
    blow_up_verdict,
    evaluate_report,  # noqa: F401  perfbench/tracing.py wraps it here by name
    evaluate_reports,
    vacuum_endpoint_norm,
)
from .littlewood_paley import (
    BesovIndex,
    _besov_aggregates,
    besov_norm,  # noqa: F401  `kortorus besov`'s "norm"; perfbench/tracing.py wraps it here
    block_lp_norms,
)
from .model import FieldState, ModelParams, SpectralState
from .scenarios import initial_state, manufactured_solution
from .spectral import VectorField
from .timestepping import Trajectory, run
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2


def _float_repr(x) -> str:
    return repr(float(x))


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_float_repr) + "\n"


def _resolve_output(directory: str | None, label: str) -> Path:
    root = os.environ.get("KORTORUS_OUTPUT_ROOT", ".")
    if directory is None:
        directory = label
    path = Path(directory)
    if not path.is_absolute():
        path = Path(root) / path
    return path


def _rows(table: ReportTable):
    """Each report's values in ``table``, in COLUMNS order, as Python floats."""
    return zip(*(table.column(name).tolist() for name in COLUMNS))


def _write_csv(out: TextIO, table: ReportTable, header: bool = True):
    """Write the CSV rows of ``table`` (shortest round-trip reprs) to ``out``,
    after the header line unless ``header`` is False, and flush."""
    lines = [",".join(COLUMNS)] if header else []
    lines += [",".join(map(repr, row)) for row in _rows(table)]
    out.write("".join(line + "\n" for line in lines))
    out.flush()


def _write_jsonl(out: TextIO, table: ReportTable):
    """Write one JSON line per report of ``table`` to ``out`` and flush."""
    out.write("".join(
        json.dumps(dict(zip(COLUMNS, row), diverged=list(diverged),
                        schema_version=SCHEMA_VERSION), sort_keys=True, default=_float_repr)
        + "\n" for row, diverged in zip(_rows(table), table.diverged)))
    out.flush()


def _write_snapshots(outdir: Path, states, index: list[str]):
    """Dump ``states`` into ``outdir/snapshots`` as the snapshots that follow
    the ``index`` entries already there, and append each one's entry to
    ``index`` once its dumps are complete, so the index only ever names
    dumps that are complete on disk (``_write_index`` writes it).

    ``index`` holds each entry as its indented text in ``index.json``, so
    the file reads as ``_json_dumps({"snapshots": entries})`` without every
    entry going through json's indenting encoder (pure Python) again at each
    replacement, which dominated runs that dump every step."""
    snapdir = outdir / "snapshots"
    snapdir.mkdir(parents=True, exist_ok=True)
    for i, state in enumerate(states, start=len(index)):
        entry = {"time": state.time, "rho": f"snap_{i:06d}.rho.fld", "w": []}
        write_field_dump(snapdir / entry["rho"], state.rho)
        for j in range(state.grid.dim):
            name = f"snap_{i:06d}.w{j}.fld"
            write_field_dump(snapdir / name, state.w.component(j))
            entry["w"].append(name)
        index.append(textwrap.indent(_json_dumps(entry), "    ").rstrip("\n"))


def _write_index(outdir: Path, index: list[str]):
    """Replace ``outdir/snapshots/index.json`` (a temporary file renamed over
    it) with the entries ``index`` holds (``_write_snapshots``)."""
    tmp = outdir / "snapshots" / "index.json.tmp"
    tmp.write_text('{\n  "snapshots": [\n' + ",\n".join(index) + "\n  ]\n}\n")
    os.replace(tmp, outdir / "snapshots" / "index.json")


class _StreamedTrajectory(Trajectory):
    """The Trajectory ``simulate`` records into: it holds no states.  The
    reports ``run`` records are appended to ``functionals.csv`` and
    ``functionals.jsonl`` and flushed one batch at a time, as ``run`` records
    them.  With ``dump_snapshots`` each snapshot is dumped as ``run``
    captures it, and ``snapshots/index.json`` is replaced once per recorded
    batch, when the batch has new snapshots, and when the trajectory is
    closed; otherwise snapshots are only counted.  A run that stops early,
    by an exception of any kind, leaves valid files up to its last accepted
    step; a hard kill loses at most the rows of the batch pending in
    ``RunState.pending`` and the index entries of its snapshots, whose dumps
    stay on disk unnamed."""

    def __init__(self, params, outdir: Path, dump_snapshots: bool):
        super().__init__(params=params)
        self._outdir, self._dump_snapshots = outdir, dump_snapshots
        self._index: list[str] = []
        self._indexed = 0  # the entries index.json names
        self._files = contextlib.ExitStack()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._files.close()
        self._replace_index()

    def record(self, table: ReportTable):
        first = not self.reports
        super().record(table)
        if first:
            self._csv = self._files.enter_context(open(self._outdir / "functionals.csv", "w"))
            self._jsonl = self._files.enter_context(
                open(self._outdir / "functionals.jsonl", "w"))
        _write_csv(self._csv, table, header=first)
        _write_jsonl(self._jsonl, table)
        self._replace_index()

    def keep(self, state: FieldState):
        if self._dump_snapshots:
            _write_snapshots(self._outdir, [state], self._index)

    def _replace_index(self):
        if len(self._index) > self._indexed:
            _write_index(self._outdir, self._index)
            self._indexed = len(self._index)


def _forcing_for(config: ScenarioConfig):
    if config.initial.family != "manufactured":
        return None
    sid = (config.initial.params or {}).get("id", "ms1d")
    return manufactured_solution(sid).forcing(config.grid, config.model)


@contextlib.contextmanager
def _snapshot_faults():
    """Raise as DumpFormatError what reading a trajectory's snapshots raises
    in the block when they are missing, corrupt or hold bad samples
    (json.JSONDecodeError is a ValueError), and nothing else."""
    try:
        yield
    except (InvalidField, NonpositiveDensity, OSError, KeyError, TypeError, ValueError) as exc:
        raise DumpFormatError(str(exc)) from exc


def _snapshot_entries(trajdir: Path) -> tuple[Path, list[dict]]:
    """The snapshot directory of ``trajdir`` and the entries of its index,
    one at least; raises DumpFormatError."""
    snapdir = trajdir / "snapshots"
    with _snapshot_faults():
        entries = list(json.loads((snapdir / "index.json").read_text())["snapshots"])
    if not entries:
        raise DumpFormatError(f"no snapshots in {trajdir}")
    return snapdir, entries


def _read_snapshot(snapdir: Path, entry: dict, params: ModelParams) -> SpectralState:
    """The snapshot of index entry ``entry``, validated once (finite samples,
    a density above RHO_FLOOR), as the SpectralState under ``params`` that
    the reports take as it is; raises DumpFormatError."""
    with _snapshot_faults():
        rho = read_field_dump(snapdir / entry["rho"])
        comps = [read_field_dump(snapdir / name).data for name in entry["w"]]
        return SpectralState(FieldState(rho, VectorField(rho.grid, np.stack(comps)),
                                        time=float(entry["time"])).validate(), params)


def _load_checkpoint(trajdir: Path, config: ScenarioConfig) -> FieldState:
    """Last stored snapshot of a previous run, as a fresh initial state."""
    snapdir, entries = _snapshot_entries(trajdir)
    last = _read_snapshot(snapdir, entries[-1], config.model)
    if last.grid != config.grid:
        raise DumpFormatError(
            f"checkpoint grid {last.grid.resolution} does not match the "
            f"configured grid {config.grid.resolution}")
    return FieldState(last.rho, last.w, time=0.0)


def _summary(config: ScenarioConfig, traj: Trajectory, error_info: dict | None,
             restarted_from: str | None) -> dict:
    """The ``summary.json`` document of a run that ended with ``traj``."""
    verdict = blow_up_verdict(traj, config.model, config.monitors)
    times, mass = traj.reports.column("time").tolist(), traj.reports.column("mass").tolist()
    return {
        "status": "blow-up detected" if error_info else "completed",
        "label": config.output.label,
        "config": config.to_json_dict(),
        "restarted_from": restarted_from,
        "final_time": times[-1] if times else 0.0,
        "steps": len(traj.reports) - 1,
        "snapshots": traj.snapshots,
        "error": error_info,
        "verdict": verdict.to_json_dict(),
        "mass_drift": abs(mass[-1] - mass[0]) / abs(mass[0]) if mass else 0.0,
    }


def cmd_simulate(args) -> int:
    try:
        config = parse_config(Path(args.config).read_text())
    except ParseError as exc:
        print(f"config parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConstraintViolationError as exc:
        print("config constraint violations:", file=sys.stderr)
        for v in exc.violations:
            print(f"  - {v}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE

    outdir = _resolve_output(args.output or config.output.directory,
                             config.output.label)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.echo.json").write_text(config.serialize())

    if args.restart:
        if config.initial.family == "manufactured":
            print("cannot restart a manufactured run: the checkpoint carries "
                  "neither its forcing nor its time", file=sys.stderr)
            return EXIT_USAGE
        try:
            state0, forcing = _load_checkpoint(Path(args.restart), config), None
        except DumpFormatError as exc:
            print(f"cannot restart from checkpoint: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        try:
            state0 = initial_state(config.grid, config.initial.family,
                                   config.initial.params, seed=config.initial.seed)
            forcing = _forcing_for(config)
        except ValueError as exc:
            print(f"invalid initial-condition parameters: {exc}", file=sys.stderr)
            return EXIT_USAGE

    error_info = None
    exit_code = EXIT_OK
    dump_snapshots = (config.output.write_fields
                      or config.integrator.snapshot_interval is not None)
    with _StreamedTrajectory(config.model, outdir, dump_snapshots) as traj:
        try:
            run(state0, config.model, config.integrator, config.monitors,
                forcing=forcing, trajectory=traj)
        except (PositivityLoss, StepUnderflow, NonFinite) as exc:
            error_info = {"kind": type(exc).__name__, "message": str(exc)}
            exit_code = EXIT_NUMERICAL
        except KortorusError as exc:
            (outdir / "summary.json").write_text(_json_dumps(
                {"status": "error", "error": {"kind": type(exc).__name__,
                                              "message": str(exc)}}))
            print(f"simulation error: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL

    summary = _summary(config, traj, error_info, args.restart)
    (outdir / "summary.json").write_text(_json_dumps(summary))
    print(_json_dumps(summary), end="")
    return exit_code


def cmd_verify(args) -> int:
    names = sorted(SUITES) + ["all"]
    if args.suite not in names:
        print(f"unknown suite {args.suite!r}; available: {', '.join(names)}",
              file=sys.stderr)
        return EXIT_USAGE
    results = run_suite(args.suite, seed=args.seed)
    for res in results:
        print(res.line())
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} check(s) failed: {'; '.join(failed)}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_besov(args) -> int:
    try:
        field = read_field_dump(args.dump)
    except DumpFormatError as exc:
        print(f"dump format error: {exc} (offset {exc.offset})", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"cannot read dump: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        idx = BesovIndex(args.s, args.p, args.r, args.flavor)
    except ValueError as exc:
        print(f"invalid index: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        shells = block_lp_norms(field, idx)
    except ResolutionTooSmall as exc:
        print(f"grid too coarse for a Besov norm: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidField as exc:
        print(f"invalid field: {exc}", file=sys.stderr)
        return EXIT_USAGE
    payload = {
        "resolution": list(field.grid.resolution),
        "index": {"s": args.s, "p": args.p, "r": args.r, "flavor": args.flavor},
        "shells": {str(q): shells[q] for q in sorted(shells)},
        # besov_norm(field, idx) to the bit, from the shells already taken
        "norm": _besov_aggregates(np.array([list(shells.values())]), idx)[0],
    }
    print(_json_dumps(payload), end="")
    return EXIT_OK


def cmd_monitor(args) -> int:
    """Recompute the reports of a stored trajectory's snapshots into
    ``monitor_functionals.csv`` and ``monitor_functionals.jsonl`` and print
    a summary.  ``evaluate_reports`` reads the snapshots from the index as
    it reports them, one report batch at a time, and the vacuum endpoint
    norm reads them once more, one at a time, so no more than a batch of
    states is held, whatever the number of snapshots.  The two outputs are
    written once every snapshot is read, to ``.tmp`` files that replace
    them, so a snapshot that cannot be read, or holds bad samples, stops it
    with exit code 2 and leaves the outputs of an earlier call as they
    were."""
    trajdir = Path(args.trajectory)
    try:
        config = parse_config((trajdir / "config.echo.json").read_text())
        snapdir, entries = _snapshot_entries(trajdir)
    except (ParseError, ConstraintViolationError, OSError, DumpFormatError) as exc:
        print(f"cannot read trajectory directory: {exc}", file=sys.stderr)
        return EXIT_USAGE

    def snapshots():  # each read as it is drawn
        return (_read_snapshot(snapdir, entry, config.model) for entry in entries)

    mon, dim = config.monitors, config.grid.dim
    try:
        reports = evaluate_reports(snapshots(), config.model, mon)
        # the diagonal k = q of the endpoint family 2/k + N/q = N/2
        endpoint = vacuum_endpoint_norm(snapshots(), mon.p_vacuum, 2.0 * (dim + 2) / dim)
    except DumpFormatError as exc:
        print(f"cannot read trajectory directory: {exc}", file=sys.stderr)
        return EXIT_USAGE

    outputs = [trajdir / "monitor_functionals.csv", trajdir / "monitor_functionals.jsonl"]
    partial = [path.with_name(path.name + ".tmp") for path in outputs]
    for tmp, write in zip(partial, (_write_csv, _write_jsonl)):
        with open(tmp, "w") as out:
            write(out, reports)
    for tmp, path in zip(partial, outputs):
        os.replace(tmp, path)

    verdict = blow_up_verdict(Trajectory(params=config.model, reports=reports), config.model,
                              mon)
    summary = {
        "snapshots": len(reports),
        "time_span": reports.column("time")[[0, -1]].tolist(),
        "serrin_accumulator": reports.column("serrin_accumulator")[-1].item(),
        "vacuum_endpoint_norm": endpoint,
        "verdict": verdict.to_json_dict(),
        "csv": str(trajdir / "monitor_functionals.csv"),
    }
    print(_json_dumps(summary), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kortorus",
        description="Pseudospectral workbench for isothermal capillary fluids "
                    "on the periodic torus.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario config")
    p_sim.add_argument("config", help="path to a scenario JSON document")
    p_sim.add_argument("--output", default=None, help="output directory override")
    p_sim.add_argument("--restart", default=None, metavar="TRAJDIR",
                       help="start from the last snapshot of a previous run "
                            "(field dumps; the clock restarts at t = 0)")
    p_sim.set_defaults(fn=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run an identity/inequality suite")
    p_ver.add_argument("suite", help="suite name: " + ", ".join(sorted(SUITES) + ["all"]))
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(fn=cmd_verify)

    p_bes = sub.add_parser("besov", help="per-shell norms of a field dump")
    p_bes.add_argument("dump", help="path to a binary field dump")
    p_bes.add_argument("--s", type=float, required=True, help="regularity index")
    p_bes.add_argument("--p", type=float, default=2.0,
                       help="spatial integrability (inf allowed)")
    p_bes.add_argument("--r", type=float, default=2.0,
                       help="shell summation index (inf allowed)")
    p_bes.add_argument("--flavor", choices=("nonhomogeneous", "homogeneous-style"),
                       default="nonhomogeneous")
    p_bes.set_defaults(fn=cmd_besov)

    p_mon = sub.add_parser("monitor", help="recompute functionals over a stored trajectory")
    p_mon.add_argument("trajectory", help="directory written by simulate")
    p_mon.set_defaults(fn=cmd_monitor)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
