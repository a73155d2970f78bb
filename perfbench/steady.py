#!/usr/bin/env python3
"""Runs each benchmark workload once per seed and prints, for every
metric, the median, the quartiles and the spread (interquartile range as
a share of the median) - the figures the bounds in BENCHMARK.json are set
from. It also prints each run's failed/attempted share, which must be
identical across runs.

Run from the repository root:

    python3 perfbench/steady.py --seeds 1,2,3,4,5,6,7,8,9,10
    python3 perfbench/steady.py --workloads session-durable --seeds 1,2,3,4,5
    python3 perfbench/steady.py --trace 1 --seeds 1,2,3

With the defaults it runs every workload once per seed, so one command
runs all four.
"""
import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction

WORKLOADS = ["monitor-wire", "session-durable", "steer-backlog", "pool-backlog"]


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds from BENCHMARK.json)")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    for w in args.workloads.split(","):
        runs = []
        for s in seeds:
            res = run_once(w, s, seconds, args.trace)
            runs.append(res)
            print(f"{w} seed {s}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
                  file=sys.stderr, flush=True)
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        print(f"\n{w}: {len(runs)} runs of {seconds}s, seeds {args.seeds}, trace {args.trace}")
        print(f"  correct in every run: {all(r['correct'] for r in runs)}")
        print(f"  failed/attempted shares: {sorted(str(x) for x in shares)}"
              f" ({'identical' if len(shares) == 1 else 'DIFFER'})")
        print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in sorted(runs[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  above bound/3" if spread <= bound else "  ABOVE BOUND"
            print(f"  {name:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")


if __name__ == "__main__":
    main()
