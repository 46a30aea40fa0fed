#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Usage, from the root of the repository:

    python3 perfsuite/steadiness.py [--seeds 1-10] [--workloads a,b] [--trace] > table.md

Runs every workload once per seed through `run.py` (with the
`run_seconds` of BENCHMARK.json) and prints, per workload and end-to-end
metric, the median, quartiles (`statistics.quantiles(values, n=4)`), the
quartile spread as a share of the median next to the metric's bound, and
the largest deviation from the median. With `--trace`, it also runs each
workload once in traced mode and prints the traced-vs-untraced overhead
and the closure of its profile.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return result


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print("| workload | metric | n | median | q1 | q3 | spread | bound | max dev |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in args.workloads.split(","):
        values = {}
        for s in seeds(args.seeds):
            for name, m in run(bench, w, s, False)["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            dev = max(abs(x - med) for x in v) / med
            print(
                f"| {w} | {name} | {len(v)} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                f"| {100 * (q3 - q1) / med:.1f}% | {100 * bounds[name]:.0f}% | {100 * dev:.1f}% |"
            )
    if args.trace:
        print()
        print("| workload | trace overhead | frame closure | campaign closure |")
        print("|---|---|---|---|")
        for w in args.workloads.split(","):
            m = run(bench, w, seeds(args.seeds)[0], True)["metrics"]
            print(
                f"| {w} | {m['bench.trace_overhead']['value']:.4f} "
                f"| {m['frame.closure']['value']:.4f} | {m['campaign.closure']['value']:.4f} |"
            )


if __name__ == "__main__":
    main()
