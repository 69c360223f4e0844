#!/usr/bin/env python3
"""A/A check: is the benchmark steady enough for its own bounds?

Runs the command in BENCHMARK.json ten times per workload, each time with
another seed, twice over (two sets on the same code). For every workload and
end-to-end metric it prints the spread of each set -- the distance between the
first and third quartile of the ten values as a share of their median -- and
how much worse the second set's median is than the first's, beside the
metric's bound. Exits 1 if a spread (other than setup_s's) or a median
difference exceeds its bound.

Run from the repository root:  python3 ode-e2e/aa.py [--sets 2] [--runs 10]
`--command "<program and arguments>"` runs that instead of BENCHMARK.json's
command, for example an executable built once and copied aside.
"""

import argparse
import json
import shlex
import statistics
import subprocess
import sys


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: wrong answers: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--command")
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    if args.command:
        spec["command"] = shlex.split(args.command)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    excess = False
    for workload in workloads:
        sets = [
            [run_once(spec, workload, 1 + s * args.runs + r) for r in range(args.runs)]
            for s in range(args.sets)
        ]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = [statistics.median(run[name] for run in runs) for runs in sets]
            spreads = [spread([run[name] for run in runs]) for runs in sets]
            worse = 0.0
            if len(medians) > 1:
                worse = (medians[1] - medians[0]) / medians[0]
                if metric["better"] == "higher":
                    worse = -worse
            bad = worse > bound or (name != "setup_s" and max(spreads) > bound)
            excess |= bad
            print(
                f"{workload:<15} {name:<16} median {medians[0]:>12.4f} "
                f"spread {' '.join(f'{s:.3f}' for s in spreads)} "
                f"second-set worse by {worse:+.3f} bound {bound:.2f}"
                f"{'  EXCEEDS' if bad else ''}",
                flush=True,
            )
            for runs in sets:
                print("    values", " ".join(f"{run[name]:.4g}" for run in runs), flush=True)
    sys.exit(1 if excess else 0)


if __name__ == "__main__":
    main()
