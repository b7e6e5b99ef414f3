#!/usr/bin/env python3
"""Runs the benchmark command of BENCHMARK.json over several workloads.

    python3 perfbench/suite.py report [--seed N] [--trace 0|1]
        every workload once; prints each full report
    python3 perfbench/suite.py spread [--seeds 10]
        every workload once per seed; per end-to-end metric, the median and
        the distance between the first and third quartiles as a share of
        the median, next to the metric's bound
    python3 perfbench/suite.py determinism [--seed N]
        every workload twice with one seed; the inputs and counts digests
        must be identical

Add --workloads W... to restrict the workloads. Run from the repository
root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds, trace=0):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def report(command, workloads, seconds, opts):
    for w in workloads:
        lines, _ = run(command, w, opts.seed, seconds, opts.trace)
        # The report without the per-program input listing.
        print("\n".join(line for line in lines if not line.startswith("  ") or "n=" in line))
        print()


def spread(command, workloads, seconds, bench, opts):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w in workloads:
        values = {name: [] for name in bounds}
        for seed in range(opts.first_seed, opts.first_seed + opts.seeds):
            result = run(command, w, seed, seconds)[1]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{n}={result['metrics'][n]['value']:.6g}" for n in bounds), flush=True)
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            flag = "ok" if share < bounds[name] / 3 else "WIDE"
            print(f"{w} {name}: median {med:.6g} spread {share:.4f} "
                  f"(bound {bounds[name]}, bound/3 {bounds[name] / 3:.4f}) {flag}")


def determinism(command, workloads, seconds, opts):
    ok = True
    for w in workloads:
        first, second = ([line for line in run(command, w, opts.seed, seconds)[0]
                          if "digest:" in line] for _ in range(2))
        same = first == second
        ok &= same
        print(f"{w}: {'identical' if same else 'DIFFERENT'} {first}"
              + ("" if same else f" vs {second}"))
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["report", "spread", "determinism"])
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    opts = parser.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    command = bench["command"]
    seconds = bench["run_seconds"]
    workloads = opts.workloads or [w["name"] for w in bench["workloads"]]
    if opts.mode == "report":
        report(command, workloads, seconds, opts)
    elif opts.mode == "spread":
        spread(command, workloads, seconds, bench, opts)
    else:
        determinism(command, workloads, seconds, opts)


if __name__ == "__main__":
    main()
