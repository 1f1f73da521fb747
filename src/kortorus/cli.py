"""Command-line surface: simulate, verify, besov, monitor.

Exit codes: 0 success, 1 numerical failure or blow-up (or failed checks),
2 usage/config error.  Relative output directories resolve against
$KORTORUS_OUTPUT_ROOT when it is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .config import ScenarioConfig, parse_config
from .dump import read_field_dump, write_field_dump
from .errors import (
    ConstraintViolationError,
    DumpFormatError,
    InvalidField,
    KortorusError,
    NonFinite,
    ParseError,
    PositivityLoss,
    StepUnderflow,
)
from .functionals import (
    FunctionalReport,
    blow_up_verdict,
    evaluate_report,
    vacuum_endpoint_norm,
)
from .littlewood_paley import BesovIndex, besov_norm, block_lp_norms, family_for
from .model import FieldState
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


def _write_csv(path: Path, reports: list[FunctionalReport]):
    lines = [",".join(FunctionalReport.csv_header())]
    for rep in reports:
        lines.append(",".join(rep.csv_row()))
    path.write_text("\n".join(lines) + "\n")


def _write_jsonl(path: Path, reports: list[FunctionalReport]):
    lines = [json.dumps(rep.to_json_dict(), sort_keys=True, default=_float_repr)
             for rep in reports]
    path.write_text("\n".join(lines) + "\n")


def _write_snapshots(outdir: Path, traj: Trajectory) -> dict:
    snapdir = outdir / "snapshots"
    snapdir.mkdir(parents=True, exist_ok=True)
    index = []
    for i, state in enumerate(traj.states):
        entry = {"time": state.time, "rho": f"snap_{i:06d}.rho.fld", "w": []}
        write_field_dump(snapdir / entry["rho"], state.rho)
        for j in range(state.grid.dim):
            name = f"snap_{i:06d}.w{j}.fld"
            write_field_dump(snapdir / name, state.w.component(j))
            entry["w"].append(name)
        index.append(entry)
    meta = {"snapshots": index}
    (snapdir / "index.json").write_text(_json_dumps(meta))
    return meta


def _forcing_for(config: ScenarioConfig):
    if config.initial.family != "manufactured":
        return None
    sid = (config.initial.params or {}).get("id", "ms1d")
    return manufactured_solution(sid).forcing(config.grid, config.model)


#: What reading the snapshots of a trajectory directory raises when they are
#: missing or corrupt (json.JSONDecodeError is a ValueError).
_SNAPSHOT_ERRORS = (DumpFormatError, InvalidField, OSError, KeyError, TypeError, ValueError)


def _read_snapshots(trajdir: Path, last_only: bool = False) -> list[FieldState]:
    """The snapshots ``_write_snapshots`` stored under ``trajdir`` (only the
    last one with ``last_only``); raises one of _SNAPSHOT_ERRORS."""
    snapdir = trajdir / "snapshots"
    entries = json.loads((snapdir / "index.json").read_text())["snapshots"]
    if not entries:
        raise DumpFormatError(f"no snapshots in {trajdir}")
    states = []
    for entry in entries[-1:] if last_only else entries:
        rho = read_field_dump(snapdir / entry["rho"])
        comps = [read_field_dump(snapdir / name).data for name in entry["w"]]
        states.append(FieldState(rho, VectorField(rho.grid, np.stack(comps)),
                                 time=float(entry["time"])))
    return states


def _load_checkpoint(trajdir: Path, config: ScenarioConfig) -> FieldState:
    """Last stored snapshot of a previous run, as a fresh initial state."""
    (last,) = _read_snapshots(trajdir, last_only=True)
    if last.grid != config.grid:
        raise DumpFormatError(
            f"checkpoint grid {last.grid.resolution} does not match the "
            f"configured grid {config.grid.resolution}")
    return FieldState(last.rho, last.w, time=0.0)


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
        try:
            state0, forcing = _load_checkpoint(Path(args.restart), config), None
        except _SNAPSHOT_ERRORS as exc:
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
    try:
        traj = run(state0, config.model, config.integrator, config.monitors,
                   forcing=forcing)
    except (PositivityLoss, StepUnderflow, NonFinite) as exc:
        traj = exc.trajectory
        error_info = {"kind": type(exc).__name__, "message": str(exc)}
        exit_code = EXIT_NUMERICAL
    except KortorusError as exc:
        (outdir / "summary.json").write_text(_json_dumps(
            {"status": "error", "error": {"kind": type(exc).__name__,
                                          "message": str(exc)}}))
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    _write_csv(outdir / "functionals.csv", traj.reports)
    _write_jsonl(outdir / "functionals.jsonl", traj.reports)
    if config.output.write_fields or config.integrator.snapshot_interval is not None:
        _write_snapshots(outdir, traj)

    verdict = blow_up_verdict(traj, config.model, config.monitors)
    summary = {
        "status": "blow-up detected" if error_info else "completed",
        "label": config.output.label,
        "config": config.to_json_dict(),
        "restarted_from": args.restart,
        "final_time": traj.reports[-1].time if traj.reports else 0.0,
        "steps": len(traj.step_times) - 1,
        "snapshots": len(traj.states),
        "error": error_info,
        "verdict": verdict.to_json_dict(),
        "mass_drift": abs(traj.reports[-1].mass - traj.reports[0].mass)
                      / abs(traj.reports[0].mass) if traj.reports else 0.0,
    }
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
    family = family_for(field.grid)
    shells = block_lp_norms(field, idx, family)
    payload = {
        "resolution": list(field.grid.resolution),
        "index": {"s": args.s, "p": args.p, "r": args.r, "flavor": args.flavor},
        "shells": {str(q): shells[q] for q in sorted(shells)},
        "norm": besov_norm(field, idx, family),
    }
    print(_json_dumps(payload), end="")
    return EXIT_OK


def cmd_monitor(args) -> int:
    trajdir = Path(args.trajectory)
    try:
        config = parse_config((trajdir / "config.echo.json").read_text())
        states = _read_snapshots(trajdir)
    except (ParseError, ConstraintViolationError, *_SNAPSHOT_ERRORS) as exc:
        print(f"cannot read trajectory directory: {exc}", file=sys.stderr)
        return EXIT_USAGE

    reports = [evaluate_report(s, config.model, config.monitors) for s in states]
    _write_csv(trajdir / "monitor_functionals.csv", reports)
    _write_jsonl(trajdir / "monitor_functionals.jsonl", reports)

    traj = Trajectory(params=config.model, states=states, reports=reports,
                      step_times=[s.time for s in states])
    mon = config.monitors
    verdict = blow_up_verdict(traj, config.model, mon)
    # the verdict integrates the reports' serrin_integrand over the snapshot
    # times, which is serrin_accumulator without a second Serrin norm per state
    serrin = 0.0 if verdict.serrin_value is None else verdict.serrin_value
    k_endpoint = 6.0 if config.grid.dim == 1 else 4.0
    summary = {
        "snapshots": len(states),
        "time_span": [states[0].time, states[-1].time],
        "serrin_accumulator": serrin,
        "vacuum_endpoint_norm": vacuum_endpoint_norm(traj, mon.p_vacuum, k_endpoint),
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
