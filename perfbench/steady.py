#!/usr/bin/env python3
"""Check that the benchmark is steady: two sets of runs of the same build.

    python3 perfbench/steady.py [--workloads a,b] [--seed 1] [--raw FILE]

Runs every workload (or the listed ones) ten times (RUNS) in each of two
sets (SETS) through perfbench/run.py, each run with another seed (set k
uses seeds seed + 1000*k + i). For each end-to-end metric of BENCHMARK.json it
prints, per workload and set, the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread
(q3 - q1) / median. The sets agree when
  * every spread, setup_s included, is within the metric's bound;
  * for every metric, the two sets' medians differ by no more than the
    bound, as a share of the first set's median, in either direction;
  * the share of failed operations is exactly the same in both sets,
and every run reported correct. The exit code is 0 when they agree.
`--raw FILE` writes every run's result object as JSON lines.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUNS = 10
SETS = 2

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def worse_by(better, first, second):
    """How much worse `second` is than `first`, as a share of `first`
    (negative when it is better)."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--raw", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]
    raw = open(args.raw, "w") if args.raw else None

    # results[set][workload] = list of result objects
    results = [{w: [] for w in workloads} for _ in range(SETS)]
    for k in range(SETS):
        for w in workloads:
            for i in range(RUNS):
                seed = args.seed + 1000 * k + i
                res = run_once(w, seed, bench["run_seconds"])
                results[k][w].append(res)
                if raw:
                    raw.write(json.dumps({"set": k, "workload": w, "seed": seed, **res}) + "\n")
                    raw.flush()
                print(f"set {k} {w} seed {seed}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']}", file=sys.stderr)

    agree = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<18} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for k in range(SETS):
                values = [r["metrics"][name]["value"] for r in results[k][w]]
                med = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                flag = ""
                if spread > bound:
                    flag, agree = "  SPREAD > BOUND", False
                elif spread > bound / 3:
                    flag = "  (above a third of the bound)"
                print(f"  {name:<18} {k:>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                      f"{spread:>8.4f} {bound:>6}{flag}")
            drift = worse_by(m["better"], medians[0], medians[1])
            ok = abs(drift) <= bound
            agree &= ok
            print(f"  {name:<18} second median worse by {drift:+.4f} "
                  f"{'ok' if ok else 'EXCEEDS BOUND'}")
        shares = []
        for k in range(SETS):
            runs = results[k][w]
            if not all(r["correct"] for r in runs):
                print("  a run reported correct=false")
                agree = False
            shares.append(sorted({r["failed"] / r["attempted"] for r in runs}))
        print(f"  failed share per set: {shares}")
        if any(len(s) != 1 for s in shares) or len({tuple(s) for s in shares}) != 1:
            agree = False
    print(f"\n{'AGREE' if agree else 'DISAGREE'}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
