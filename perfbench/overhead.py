"""Tracing overhead and repeatability of the traced counts, per workload.

Usage (from the repository root):

    python3 perfbench/overhead.py [--seeds 1,2] [WORKLOAD ...]

For each workload and seed it runs perfbench/run.py once untraced and twice
traced (the untraced run first for even-numbered seeds, last for odd ones).
It prints the median `wall_s` of the untraced runs, the median
`trace.wall_s` of the traced runs, their difference, and whether every
count metric (unit `count`) was the same in the two traced runs of each
seed; then every per-layer metric of each workload's first traced run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def one_run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["failed"] or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1")
    ap.add_argument("workloads", nargs="*", default=list(run.WORKLOADS))
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    counts = [n for n, u in run.per_layer_units().items() if u == "count"]
    print(f"{'workload':16s} {'untraced_s':>10s} {'traced_s':>10s} {'overhead_s':>10s} "
          f"{'overhead':>8s}  counts repeat")
    layers = {}
    for workload in args.workloads:
        plain, traced, repeat = [], [], True
        for k, seed in enumerate(seeds):
            order = (0, 1, 1) if k % 2 == 0 else (1, 1, 0)
            runs = {0: [], 1: []}
            for trace in order:
                runs[trace].append(one_run(workload, seed, trace))
            plain += [m["wall_s"] for m in runs[0]]
            traced += [m["trace.wall_s"] for m in runs[1]]
            first, second = runs[1]
            repeat &= all(first[n] == second[n] for n in counts)
            layers.setdefault(workload, first)
        a, b = statistics.median(plain), statistics.median(traced)
        print(f"{workload:16s} {a:10.2f} {b:10.2f} {b - a:10.2f} {(b - a) / a:8.1%}  "
              f"{'yes' if repeat else 'NO'}")
    print()
    print(f"{'per-layer metric (seed ' + str(seeds[0]) + ')':40s}"
          + "".join(f"{w:>16s}" for w in layers))
    for name in run.per_layer_units():
        print(f"{name:40s}" + "".join(f"{m[name]:16.6g}" for m in layers.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
