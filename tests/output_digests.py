"""Print one JSON object of sha256 digests of kortorus outputs, one entry a
name, so that two checkouts can be compared bit for bit:

* ``evolve2d/<variant>/seed<k>/<file>``: ``functionals.csv``,
  ``functionals.jsonl`` and ``summary.json`` of ``kortorus simulate`` of the
  ``evolve2d`` benchmark workload's config (128^2, 200 imex_bdf2 steps), for
  ``effective_v2`` and ``original`` (alpha 0.02), at seeds 0, 3 and 7;
* ``squeeze/<file>``: every file that ``kortorus simulate`` writes for the
  README's vacuum-squeeze config;
* ``verify/seed<k>``: the lines of ``kortorus verify all --seed k``, k = 0..3,
  with their ``elapsed=`` times stripped;
* ``study1d/seed<k>/<run>``: the reports, kept states and termination of
  each of the 17 runs of the ``study1d`` benchmark workload (six ms1d
  convergence runs, one ``original`` run from the ``random_smooth`` state
  of the seed, ten squeeze runs), at seeds 3101 and 7;
* ``monitor/<run>/<file>``: every file in the directory of a stored
  trajectory once ``kortorus monitor`` has read it (each snapshot dump,
  ``snapshots/index.json`` and both ``monitor_functionals`` outputs among
  them), and ``monitor/<run>/stdout``, the summary that ``monitor`` prints,
  without its ``csv`` path, for three runs:
  ``squeeze``, the README's vacuum-squeeze config with ``write_fields``
  (1D N = 64, report batches of 32); ``cadence``, 30 imex_bdf2 steps of an
  ``effective_v1`` model (alpha = kappa/mu = 0.02) from the ``evolve2d``
  initial state at 32^2, with a 0.003 snapshot cadence (batches of 2); and
  ``evolve2d64``, 80 steps of the ``evolve2d`` model at 64^2 with
  ``write_fields`` (one state a batch);
* ``<run>/functionals.csv#<column>``: each column of each of those report
  streams (the ``evolve2d`` and ``squeeze`` files, the CSV that the
  ``study1d`` runs' reports would write, and the ``monitor`` runs'
  ``monitor_functionals.csv``), so that a change that moves some columns
  names them.

Run it from the repository root as ``PYTHONPATH=src python3
tests/output_digests.py > digests.json``; it takes about 15 s on a 2-core
host.  With ``--against digests.json`` it compares its run with that saved
object instead of printing one: it prints ``identical`` and exits 0, or
prints each entry that differs, is missing or is new, and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

from kortorus import cli, timestepping
from kortorus.model import ModelParams
from kortorus.scenarios import initial_state
from kortorus.spectral import SpectralGrid
from kortorus.timestepping import IntegratorConfig

from helpers import (
    EVOLVE2D_INITIAL,
    ms1d_run,
    readme_blocks,
    report_digest,
    squeeze_run,
)

#: the model of each ``evolve2d`` variant
EVOLVE2D_MODELS = {
    "effective_v2": {"variant": "effective_v2", "mu": 0.1, "kappa": 0.01, "a": 1.0},
    "original": {"variant": "original", "mu": 0.1, "alpha": 0.02, "kappa": 0.01, "a": 1.0},
}
EVOLVE2D_FILES = ("functionals.csv", "functionals.jsonl", "summary.json")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _simulate(document: dict, outdir: Path) -> dict[str, bytes]:
    """Every file (by path relative to ``outdir``) that ``kortorus
    simulate`` of ``document`` writes into ``outdir``."""
    config = outdir.parent / f"{outdir.name}.json"
    config.write_text(json.dumps(document))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["simulate", str(config), "--output", str(outdir)])
    return {str(p.relative_to(outdir)): p.read_bytes()
            for p in sorted(outdir.rglob("*")) if p.is_file()}


def column_digests(run: str, csv_text: str, file: str = "functionals.csv") -> dict[str, str]:
    """One digest per column of the report CSV text ``csv_text`` (its
    values, one a line), named ``<run>/<file>#<column>``."""
    header, *rows = [line.split(",") for line in csv_text.splitlines()]
    return {f"{run}/{file}#{name}": sha256("\n".join(row[i] for row in rows).encode())
            for i, name in enumerate(header)}


def evolve2d(variant: str, seed: int, tmp: Path) -> dict[str, str]:
    files = _simulate({
        "grid": {"resolution": [128, 128]},
        "model": EVOLVE2D_MODELS[variant],
        "integrator": {"scheme": "imex_bdf2", "dt_initial": 1e-3, "t_end": 0.2},
        "initial": {"family": "random_smooth", "seed": seed, "params": EVOLVE2D_INITIAL},
        "output": {"label": "evolve2d"},
    }, tmp / f"evolve2d_{variant}_{seed}")
    run = f"evolve2d/{variant}/seed{seed}"
    return {f"{run}/{name}": sha256(files[name]) for name in EVOLVE2D_FILES} | column_digests(
        run, files["functionals.csv"].decode())


def squeeze(tmp: Path) -> dict[str, str]:
    files = _simulate(readme_squeeze(), tmp / "squeeze")
    return {f"squeeze/{name}": sha256(data) for name, data in files.items()} | column_digests(
        "squeeze", files["functionals.csv"].decode())


def readme_squeeze() -> dict:
    """The README's vacuum-squeeze config document."""
    (document,) = [json.loads(block) for block in readme_blocks("json")
                   if '"gaussian_bump"' in block and '"delta_vacuum"' in block]
    return document


def stored_runs() -> dict[str, dict]:
    """The config document of each stored trajectory that ``monitor`` reads."""
    initial = {"family": "random_smooth", "seed": 3, "params": EVOLVE2D_INITIAL}
    return {
        "squeeze": dict(readme_squeeze(), output={"write_fields": True}),
        "cadence": {
            "grid": {"resolution": [32, 32]},
            "model": {"variant": "effective_v1", "mu": 0.1, "alpha": 0.02, "kappa": 0.002,
                      "a": 1.0},
            "integrator": {"scheme": "imex_bdf2", "dt_initial": 1e-3, "t_end": 0.03,
                           "snapshot_interval": 0.003},
            "initial": initial},
        "evolve2d64": {
            "grid": {"resolution": [64, 64]},
            "model": EVOLVE2D_MODELS["effective_v2"],
            "integrator": {"scheme": "imex_bdf2", "dt_initial": 1e-3, "t_end": 0.08},
            "initial": initial,
            "output": {"write_fields": True}},
    }


def monitor(name: str, document: dict, tmp: Path) -> dict[str, str]:
    """The digests of ``simulate`` of ``document`` followed by ``monitor``
    of its directory: every file there, the printed summary without its
    ``csv`` path, and each column of ``monitor_functionals.csv``."""
    outdir, out = tmp / f"monitor_{name}", io.StringIO()
    _simulate(document, outdir)
    with contextlib.redirect_stdout(out):
        cli.main(["monitor", str(outdir)])
    run = f"monitor/{name}"
    files = {str(p.relative_to(outdir)): p.read_bytes()
             for p in sorted(outdir.rglob("*")) if p.is_file()}
    return ({f"{run}/{rel}": sha256(data) for rel, data in files.items()}
            | {f"{run}/stdout": sha256(re.sub(r'^  "csv": .*\n', "", out.getvalue(),
                                              flags=re.M).encode())}
            | column_digests(run, files["monitor_functionals.csv"].decode(),
                             "monitor_functionals.csv"))


def verify(seed: int) -> dict[str, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["verify", "all", "--seed", str(seed)])
    return {f"verify/seed{seed}": sha256(re.sub(r" elapsed=\S+", "", out.getvalue()).encode())}


def trajectory_digest(trajectory: timestepping.Trajectory) -> str:
    """The sha256 of a trajectory's reports (``report_digest``), the bits
    of its kept states and its termination."""
    digest = hashlib.sha256(report_digest(trajectory.reports).encode())
    for state in trajectory.states:
        digest.update(repr(state.time).encode())
        digest.update(state.rho.data.tobytes())
        digest.update(state.w.data.tobytes())
    digest.update(repr(trajectory.terminated).encode())
    return digest.hexdigest()


def original_run(seed: int) -> timestepping.Trajectory:
    """The ``study1d`` workload's ``original`` run: 1000 steps of dt 2.5e-4
    from the ``random_smooth`` state of ``seed`` on a 1D N = 128 grid."""
    params = ModelParams(mu=1.0, alpha=0.0, kappa=1.0, a=1.0, gamma=2.0, variant="original")
    state = initial_state(SpectralGrid(128), "random_smooth",
                          {"mean": 1.2, "amplitude": 0.25, "velocity_amplitude": 0.3}, seed=seed)
    return timestepping.run(state, params, IntegratorConfig(dt_initial=2.5e-4, dt_min=1e-9,
                                                            t_end=1000 * 2.5e-4))


def study1d(seed: int) -> dict[str, str]:
    runs = {f"ms1d_{scheme}_{steps}": (lambda s=scheme, n=steps: ms1d_run(s, n))
            for scheme in ("imex_euler", "imex_bdf2") for steps in (80, 160, 320)}
    runs["original"] = lambda: original_run(seed)
    runs.update({f"squeeze{i}": (lambda i=i: squeeze_run(i)) for i in range(10)})
    out = {}
    for name, make in runs.items():
        trajectory, run = make(), f"study1d/seed{seed}/{name}"
        csv = io.StringIO()
        cli._write_csv(csv, trajectory.reports)
        out[run] = trajectory_digest(trajectory)
        out.update(column_digests(run, csv.getvalue()))
    return out


def digests() -> dict[str, str]:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for variant in EVOLVE2D_MODELS:
            for seed in (0, 3, 7):
                out.update(evolve2d(variant, seed, Path(tmp)))
        out.update(squeeze(Path(tmp)))
        for name, document in stored_runs().items():
            out.update(monitor(name, document, Path(tmp)))
    for seed in range(4):
        out.update(verify(seed))
    for seed in (3101, 7):
        out.update(study1d(seed))
    return out


def differences(run: dict[str, str], saved: dict[str, str]) -> list[str]:
    """One line for each entry of ``saved`` that ``run`` gives another
    digest or lacks, and for each entry of ``run`` that ``saved`` lacks."""
    return ([f"differs: {name}" for name in sorted(run.keys() & saved.keys())
             if run[name] != saved[name]]
            + [f"missing: {name}" for name in sorted(saved.keys() - run.keys())]
            + [f"new: {name}" for name in sorted(run.keys() - saved.keys())])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="FILE",
                        help="compare with the digests saved in FILE instead of printing them")
    args = parser.parse_args(argv)
    if args.against is None:
        json.dump(digests(), sys.stdout, indent=1, sort_keys=True)
        print()
        return 0
    saved = json.loads(Path(args.against).read_text())
    lines = differences(digests(), saved)
    print("\n".join(lines) if lines else "identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
