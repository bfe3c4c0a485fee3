#!/usr/bin/env python3
"""Run each workload as separate sets of repetitions and compare them.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--first-seed 1]

Run from the root of a checkout. It runs every workload BENCHMARK.json
lists, each run lasting its run_seconds. Every repetition is one untraced
`perfbench/run.py` run with its own seed (a set of R runs uses R
consecutive seeds; the next set continues from there). For each
workload and end-to-end metric it prints, per set, the median and
quartiles, the quartile spread as a share of the median, and the bound
from BENCHMARK.json; then the shift of each later set's median from the
first set's. A spread below a third of the bound (setup_s excepted,
which is judged only by its median) and a shift within the bound are
what the benchmark's bounds are set from. Exits 1 if any run fails or
reports failed operations.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        check=False)
    lines = proc.stdout.decode().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d: run.py exited %d"
                         % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    if args.runs < 4:
        raise SystemExit("--runs must be at least 4 for quartiles")

    ok = True
    seed = args.first_seed
    for w in workloads:
        sets = []
        for _ in range(args.sets):
            runs = []
            for _ in range(args.runs):
                r = run_once(w, seed, seconds)
                seed += 1
                if r["failed"] or not r["correct"]:
                    ok = False
                runs.append(r)
            sets.append(runs)
        print("workload %s (%d s runs)" % (w, seconds))
        for m in spec["end_to_end"]:
            medians = []
            for i, runs in enumerate(sets):
                v = [r["metrics"][m["name"]]["value"] for r in runs]
                q1, q2, q3 = statistics.quantiles(v, n=4)
                medians.append(q2)
                print("  %-12s set %d  median %-12.6g q1 %-12.6g q3 %-12.6g"
                      " spread %6.2f%%  bound %4.0f%%"
                      % (m["name"], i + 1, q2, q1, q3,
                         100 * (q3 - q1) / q2, 100 * m["bound"]))
            for i, med in enumerate(medians[1:], start=2):
                shift = (med - medians[0]) / medians[0]
                if m["better"] == "higher":
                    shift = -shift
                print("  %-12s set %d vs 1: %+.2f%% (worse is +)"
                      % (m["name"], i, 100 * shift))
        for i, runs in enumerate(sets):
            print("  operations   set %d  %d attempted, %d failed"
                  % (i + 1, sum(r["attempted"] for r in runs),
                     sum(r["failed"] for r in runs)))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
