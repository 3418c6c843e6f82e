#!/usr/bin/env python3
"""Steadiness report: run one workload K times in fresh processes.

    python3 verifbench/steadiness.py --workload corpus_fixpoint --runs 10

Run from the repository root. Each run uses the next seed (seed-base,
seed-base + 1, ...) and the command and run length from BENCHMARK.json.
Prints, per end-to-end metric, the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the interquartile
spread as a share of the median against the metric's bound, then the
median per-family latency table and quantile ladder of the runs, which
shows whether a reported percentile sits on a gap in the distribution.
Exits 1 if any run failed or any spread exceeds its bound.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run with seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1]), lines[:-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    values = {name: [] for name in bounds}
    families = {}
    ladders = []
    failed = 0
    for k in range(args.runs):
        seed = args.seed_base + k
        result, text = run_once(bench["command"], args.workload, seed, seconds)
        failed += result["failed"] + (0 if result["correct"] else 1)
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        for line in text:
            m = re.match(r"family (\S+)\s+\d+\s+\d+\s+(\S+)\s+(\S+)", line)
            if m:
                families.setdefault(m[1], []).append((float(m[2]), float(m[3])))
            if line.startswith("quantiles_us "):
                ladders.append(dict(kv.split("=") for kv in line.split()[1:]))
        summary = " ".join(
            f"{name}={result['metrics'][name]['value']:.6g}" for name in bounds
        )
        print(f"run {k + 1}/{args.runs} seed={seed} {summary}", flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
          f"{'bound':>6} verdict")
    too_wide = False
    for name, spec in bounds.items():
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / statistics.median(v)
        bound = spec["bound"]
        if spread < bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO WIDE"
            too_wide = True
        print(f"{name:<16} {statistics.median(v):>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {bound:>6} {verdict}")

    if families:
        print(f"\n{'family':<16} {'p50_us':>10} {'p99_us':>10}  (median over runs)")
        for fam, rows in families.items():
            print(f"{fam:<16} {statistics.median(r[0] for r in rows):>10.1f} "
                  f"{statistics.median(r[1] for r in rows):>10.1f}")
    if ladders:
        keys = list(ladders[0])
        ladder = " ".join(
            f"{key}={statistics.median(float(l[key]) for l in ladders):.1f}" for key in keys
        )
        print(f"\nquantiles_us (median over runs) {ladder}")
        p45, p55 = (statistics.median(float(l[k]) for l in ladders) for k in ("p45", "p55"))
        print(f"p45..p55 spans {100 * (p55 / p45 - 1):.1f}% around the median "
              "(a wide span means p50 sits on a gap)")
    print(f"\nfailed operations over all runs: {failed}")
    return 1 if failed or too_wide else 0


if __name__ == "__main__":
    sys.exit(main())
