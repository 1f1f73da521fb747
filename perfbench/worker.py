"""One benchmark process: set-up, warm-up, timed rounds, output checks.

``run.py`` starts it with a fixed environment (hash seed, one BLAS thread,
``src`` on the path) and reads the JSON object it prints last.  With
``--setup-only`` it stops after set-up and reports only the set-up time.
``--started`` is the wall-clock time at which the parent started this
process, so set-up time runs from process start to the first timed call.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def reference_kernel_s() -> float:
    """Time of a fixed numpy kernel (FFTs and a matrix product), printed with
    each run to tell drift of the host from a change of the program."""
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256))
    t0 = time.perf_counter()
    for _ in range(40):
        b = np.fft.ifftn(np.fft.fftn(a)).real
        a = (b @ b.T) / np.linalg.norm(b)
    return time.perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # import_s includes installing the FFT wrappers, so that it covers the
    # numpy and scipy imports that importing kortorus pays for untraced
    t0 = time.perf_counter()
    tracer = clock = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install_fft_counters()
        tracer.enabled = True
    else:
        from hostspeed import FftClock
        clock = FftClock()
        clock.install()
    import kortorus
    import kortorus.cli  # noqa: F401  (imports every module the CLI uses)
    import_s = time.perf_counter() - t0
    src = (Path.cwd() / "src").resolve()
    if src not in Path(kortorus.__file__).resolve().parents:
        print(f"kortorus imported from {kortorus.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    if tracer:
        tracer.install_spans()
        if tracer.missing:
            print("trace: cannot trace " + ", ".join(tracer.missing)
                  + "; update perfbench/tracing.py", file=sys.stderr)
            return 3

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed, args.out)
    setup_s = time.time() - args.started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if tracer:
        tracer.phase = "warmup"
    workload.warmup()
    if clock:
        clock.take_round()

    # whole rounds until the run length is reached; a traced run alternates
    # untraced and traced rounds, and the difference is the tracing overhead
    walls = {False: [], True: []}
    fft_calls = []  # per untraced round of an untraced run, for the slowdown
    attempted = failed = output_bytes = 0
    problems: list[str] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        if tracer:
            tracer.enabled = traced
            tracer.phase = "round" if traced else "untraced"
        res = workload.round()
        walls[traced].append(res.wall_s)
        if clock:
            fft_calls.append(clock.take_round())
        attempted += res.attempted
        failed += res.failed
        problems += res.problems
        output_bytes = res.output_bytes
        done = time.perf_counter() - start >= args.seconds
        if done and (tracer is None or len(walls[True]) == len(walls[False])):
            break
    if tracer:
        tracer.enabled = False

    for problem in dict.fromkeys(problems):
        print(f"{args.workload}: {problem}", file=sys.stderr)
    rounds = walls[False]
    print(f"{args.workload}: {len(rounds)} rounds, wall "
          + ", ".join(f"{w:.3f}" for w in rounds) + " s", file=sys.stderr)
    if clock:
        slowdowns = [clock.slowdown(calls) for calls in fft_calls]
        rounds = [w / s for w, s in zip(rounds, slowdowns)]
        print(f"{args.workload}: host slowdown "
              + ", ".join(f"{s:.3f}" for s in slowdowns) + ", quiet wall "
              + ", ".join(f"{w:.3f}" for w in rounds) + " s", file=sys.stderr)
    print(f"{args.workload}: reference kernel {reference_kernel_s():.3f} s",
          file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_s,
        "wall_s": statistics.median(rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        from tracing import layer_metrics
        n = len(walls[True])
        setup = tracer.totals("setup")
        result["layers"] = layer_metrics(tracer, n, {
            "setup.import_s": import_s,
            "scenarios.forcing_compile_s":
                setup.get("scenarios.forcing", {}).get("s", 0.0),
            "cli.output_bytes": float(output_bytes),
            "trace.overhead_s": (statistics.median(walls[True])
                                 - statistics.median(walls[False])),
        })
        path = args.out / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "traced_rounds": n, "walls": walls})
        print_self_times(tracer, n)
        print(f"{args.workload}: spans written to {path}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def print_self_times(tracer, rounds: int):
    """Per span name, per traced round: calls, inclusive and self seconds."""
    totals = tracer.totals("round")
    print(f"{'span':42s} {'calls':>8s} {'incl_s':>9s} {'self_s':>9s}", file=sys.stderr)
    for name, t in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:42s} {t['calls'] / rounds:8.0f} {t['s'] / rounds:9.4f} "
              f"{t['self_s'] / rounds:9.4f}", file=sys.stderr)
    calls, seconds = tracer.fft_by_phase.get("round", (0, 0.0))
    print(f"{'(numpy/scipy FFT entry points)':42s} {calls / rounds:8.0f} "
          f"{seconds / rounds:9.4f} {seconds / rounds:9.4f}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
