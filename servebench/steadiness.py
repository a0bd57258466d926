#!/usr/bin/env python3
"""Steadiness study for the serving benchmark.

Runs the command in BENCHMARK.json several times per workload, each with
its own seed, and reports for every end-to-end metric the median, the
quartiles (statistics.quantiles(n=4)), and the inter-quartile spread as a
share of the median, next to the metric's bound.

    python3 servebench/steadiness.py --runs 10 --out servebench/STEADINESS.md

Run it from the repository root. Workloads are interleaved seed by seed,
so slow drift on the host spreads over all of them alike.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    started = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    took = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                 f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} answered wrongly:\n{proc.stdout}")
    return result, took


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    workloads = ([w for w in opts.workloads.split(",") if w]
                 or [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]
    bounds = {m["name"]: m["bound"] for m in metrics}
    seeds = list(range(opts.first_seed, opts.first_seed + opts.runs))

    values = {w: {m["name"]: [] for m in metrics} for w in workloads}
    durations = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            result, took = run_once(command, w, seed, bench["run_seconds"])
            durations[w].append(took)
            for name, v in result["metrics"].items():
                values[w][name].append(v["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{n}={v['value']:.4g}" for n, v in result["metrics"].items()),
                file=sys.stderr, flush=True)

    out = []
    out.append(f"Runs per workload: {opts.runs} (seeds {seeds[0]}..{seeds[-1]}), "
               f"run_seconds {bench['run_seconds']}, "
               f"host_threads {os.cpu_count()}.\n")
    worst = {}
    for w in workloads:
        out.append(f"\n### {w}\n")
        out.append(f"Wall time per run: median {statistics.median(durations[w]):.1f} s, "
                   f"max {max(durations[w]):.1f} s.\n")
        out.append("| metric | median | q1 | q3 | spread (q3-q1)/median | bound | spread/bound |")
        out.append("|---|---|---|---|---|---|---|")
        for m in metrics:
            name = m["name"]
            vals = values[w][name]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            worst[(w, name)] = spread / bound
            out.append(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f} | "
                       f"{bound} | {spread / bound:.2f} |")
        out.append("\nValues in run order: " + "; ".join(
            f"{m['name']} " + ", ".join(f"{v:.5g}" for v in values[w][m["name"]])
            for m in metrics) + "\n")
    (w, name), r = max(worst.items(), key=lambda kv: kv[1])
    out.append(f"\nLargest spread/bound: {r:.2f} ({name} on {w}).\n")
    text = "\n".join(out)
    print(text)
    if opts.out:
        with open(opts.out, "w") as f:
            f.write(text)


if __name__ == "__main__":
    main()
