#!/usr/bin/env python3
"""Runs the benchmark repeatedly and summarises each metric's spread.

Usage (from the repository root):

    python3 perfbench/steadiness.py --workload serve_reads --seeds 1-10
    python3 perfbench/steadiness.py --workload knn_batch --seeds 1 --runs 10

Each run is the command in BENCHMARK.json with `--workload`, `--seed`,
`--seconds <run_seconds>` and `--trace 0`. `--seeds a-b` runs one seed
per run; a single seed with `--runs N` repeats it N times. The table
gives, per end-to-end metric, the median, the quartiles
(`statistics.quantiles(values, n=4)`), the interquartile range as a
share of the median, that share over the metric's bound, and whether
every run read exactly the same value (the simulated metrics must, when
one seed is repeated).
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec, runs):
    if "-" in spec:
        lo, hi = (int(x) for x in spec.split("-"))
        return list(range(lo, hi + 1))
    return [int(spec)] * runs


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds_of(args.seeds, args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", "0",
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    print(f"\n| metric | median | q1 | q3 | IQR/median | bound | share of bound | identical |")
    print("|---|---|---|---|---|---|---|---|")
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        share = f"{spread / bound:.2f}" if bound else "-"
        same = "yes" if len(set(vs)) == 1 else "no"
        print(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | "
              f"{bound if bound is not None else '-'} | {share} | {same} |")


if __name__ == "__main__":
    main()
