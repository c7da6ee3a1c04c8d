#!/usr/bin/env python3
"""Run-to-run spread of dvcbench's end-to-end metrics.

    python3 dvcbench/spread.py --seeds 1..10 [--workloads sweep26,fleet]
                               [--trace 0] [--seconds N]

Runs every named workload once per seed (sequentially, from the checkout
root) and prints, per metric, the median and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median. With --trace 0 each spread is checked against a third
of the metric's bound in BENCHMARK.json (setup_s is reported, not
checked). Exits 1 if a run fails or prints an incorrect result, or a
checked spread is too wide.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1..10", type=seed_list)
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--trace", default=0, type=int, choices=(0, 1))
    p.add_argument("--seconds", default=bench["run_seconds"], type=int)
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, timeout=900)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {run.returncode}\n"
                      f"{run.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect result {result}")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload} ({len(args.seeds)} seeds)")
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            verdict = ""
            if args.trace == 0 and name in bounds and name != "setup_s":
                limit = bounds[name] / 3
                verdict = "ok" if spread < limit else f"WIDE (> {limit:.4f})"
                ok = ok and spread < limit
            print(f"  {name:36s} median {med:<14.6g} spread {spread:8.4f}"
                  f"  {verdict}")
            print("      runs: " + " ".join(f"{v:.6g}" for v in vs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
