#!/usr/bin/env python3
"""Steadiness report for the benchmark in BENCHMARK.json.

Runs the benchmark command once per seed on each workload, untraced,
and prints every end-to-end metric's median, quartiles and spread
(interquartile range over the median) per workload, against the
metric's bound. With --sets 2 it runs the whole set twice and also
prints how far the second median moved from the first, which is the
agreement two sets of runs of the same code must show.

Run from the repository root:

    python3 perfbench/steady.py --seeds 1-10 [--workloads serve_hot,mine_quest] [--sets 2]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench, workload, seed, trace=0):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect or failed ops: {lines[-1]}")
    env = [line for line in lines if line.startswith("untraced: env:")]
    return result, wall, env[0] if env else ""


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower_better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    workloads = [w for w in args.workloads.split(",") if w] or [
        w["name"] for w in bench["workloads"]
    ]
    seeds = parse_seeds(args.seeds)

    medians = {}
    ok = True
    for set_index in range(args.sets):
        for workload in workloads:
            values = {name: [] for name in bounds}
            walls = []
            for seed in seeds:
                result, wall, env = run_once(bench, workload, seed)
                walls.append(wall)
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
                if args.verbose:
                    shown = {k: round(v["value"], 3) for k, v in result["metrics"].items()}
                    print(f"  seed {seed} wall={wall:.1f}s {shown} {env}", flush=True)
            print(f"set {set_index + 1} {workload}: {len(seeds)} runs, "
                  f"max wall {max(walls):.1f}s", flush=True)
            for name, bound in bounds.items():
                q1, med, q3, s = spread(values[name])
                line = (f"  {name:14s} median={med:.4f} q1={q1:.4f} q3={q3:.4f} "
                        f"spread={s:.3f} bound={bound}")
                if name != "setup_s":
                    verdict = "ok" if s <= bound / 3 else ("WIDE" if s <= bound else "FAIL")
                    ok &= s <= bound
                    line += f" [{verdict}]"
                if set_index > 0:
                    first = medians[(workload, name)]
                    worse = (med - first) / first
                    if not lower_better[name]:
                        worse = -worse
                    ok &= worse <= bound
                    line += f" worse_by={worse:+.3f} [{'ok' if worse <= bound else 'FAIL'}]"
                medians.setdefault((workload, name), med)
                print(line, flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
