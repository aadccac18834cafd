"""Run the benchmark over several seeds and report each metric's spread.

    python3 pathbench/spread.py --workload dashboard --seeds 1 2 3 4 5

Runs the command from ``BENCHMARK.json`` once per seed (sequentially,
one process at a time) and prints, for every metric, the median over
the runs and the interquartile distance as a share of that median,
next to the metric's bound.  A spread above a third of the bound is
flagged: the benchmark is meant to stay well inside its own bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from hostprobe import quantile_spread

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    status = 0
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode or not result["correct"] or result["failed"]:
            status = 1
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':28s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        spread = quantile_spread(vals) if len(vals) >= 2 else 0.0
        bound = bounds.get(name)
        flag = " !" if bound and spread > bound / 3 else ""
        print(f"{name:28s} {med:14.6g} {spread:8.4f} {bound if bound else '':>6}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
