"""kortorus benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Every measurement happens in a fresh worker process with a fixed
hash seed (the cost of sympy's ``simplify`` depends on it) and one BLAS
thread.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = Path(".perfbench_out")
TIME_LIMIT_S = 170.0

# set-up samples per untraced run: the fastest is reported, since a slow
# spell of the shared host only ever lengthens a set-up.  The extra samples
# are taken after the measured run, so that they are spread over time.
# study1d's set-up is the sympy forcing compile of 20-35 s, so it is set up
# once: a second sample added 25 s a run and did not narrow the spread.
SETUP_SAMPLES = {"evolve2d": 5, "study1d": 1, "verify_seeds": 5}


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in
    BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class WorkerFailed(Exception):
    pass


def run_worker(args, extra: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(OUT.resolve()), *extra]
    started = time.time()
    try:
        proc = subprocess.run(cmd + ["--started", repr(started)], env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerFailed("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerFailed("worker printed no result")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_SAMPLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not Path("src/kortorus/__init__.py").is_file():
        print("run.py: src/kortorus not found; run from the root of a kortorus "
              "source checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        result = run_worker(args, [], deadline)
        setups = [result["setup_s"]] + [
            run_worker(args, ["--setup-only"], deadline)["setup_s"]
            for _ in range(0 if args.trace else SETUP_SAMPLES[args.workload] - 1)]
    except WorkerFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in metric_units("per_layer").items()}
    else:
        values = dict(result, setup_s=min(setups))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in metric_units("end_to_end").items()}
        print(f"{args.workload}: setup samples "
              + ", ".join(f"{s:.3f}" for s in setups) + " s", file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
