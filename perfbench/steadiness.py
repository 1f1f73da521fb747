"""Steadiness check: repeated runs of every workload, one seed per round of
workloads, in alternating workload order.  Prints, for each workload and
end-to-end metric, the median, the quartiles and the spread (quartile
distance over the median) against a third of the metric's bound.

    python3 perfbench/steadiness.py [--first-seed 100]

Each workload runs RUNS times, with seeds first-seed, first-seed + 1, ...

Run from the root of the checkout, like run.py.  Results also go to
``.perfbench_out/steadiness-<first seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args()

    results = {w: [] for w in names}
    for i in range(RUNS):
        seed = args.first_seed + i
        order = names if i % 2 == 0 else names[::-1]
        for workload in order:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, check=True)
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            results[workload].append({"seed": seed, **out})
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in out["metrics"].items())
            print(f"run {i} {workload} seed {seed}: correct={out['correct']} "
                  f"failed={out['failed']}/{out['attempted']} {values}", flush=True)

    print(f"\n{'workload':13s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound/3':>7s}")
    for workload, runs in results.items():
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < metric["bound"] / 3 else "  WIDE"
            print(f"{workload:13s} {metric['name']:12s} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                  f"{spread:7.3f} {metric['bound'] / 3:7.3f}{flag}")
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload:13s} failed share {sorted(shares)}; "
              f"all correct: {all(r['correct'] for r in runs)}")
    out = Path(".perfbench_out") / f"steadiness-{args.first_seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
