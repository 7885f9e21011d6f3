#!/usr/bin/env python3
"""Paired A/B of the benchmark in BENCHMARK.json: REV against the working tree.

Checks out REV and a snapshot of the working tree (tracked changes and
untracked, non-ignored files) as two detached worktrees under one
temporary directory, builds perfbench in each, and runs ten pairs per
workload: seeds 1-10 at BENCHMARK.json's run_seconds, untraced, with
the side that runs first alternating from pair to pair. Both sides are
built the same way in sibling directories, so the build location cannot
tell them apart. Any run that exits non-zero, reports an incorrect
answer or a failed op aborts the comparison.

Prints one row per workload and end-to-end metric: median [IQR] for
each side, the ratio of the medians (change / REV), and in how many
pairs the change was better. The worktrees are removed on exit.

Run from anywhere inside the repository:

    python3 scripts/bench_ab.py REV [WORKLOAD...]
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

PAIRS = 10


def git(root, *args, env=None):
    proc = subprocess.run(["git", *args], cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def snapshot_worktree(root, tmp):
    """Commit the working tree as it stands, without touching the real index."""
    env = dict(
        os.environ,
        GIT_INDEX_FILE=os.path.join(tmp, "index"),
        GIT_AUTHOR_NAME="bench_ab",
        GIT_AUTHOR_EMAIL="bench_ab@localhost",
        GIT_COMMITTER_NAME="bench_ab",
        GIT_COMMITTER_EMAIL="bench_ab@localhost",
    )
    git(root, "read-tree", "HEAD", env=env)
    git(root, "add", "-A", env=env)
    tree = git(root, "write-tree", env=env)
    return git(root, "commit-tree", tree, "-p", "HEAD", "-m", "bench_ab working tree", env=env)


def build(command, checkout, env):
    # The benchmark command is `cargo run ... --`; the same flags with
    # `build` compile it without running it.
    cargo = ["build" if arg == "run" else arg for arg in command if arg != "--"]
    subprocess.run(cargo, cwd=checkout, env=env, check=True)


def run_once(command, checkout, env, workload, seed, seconds):
    cmd = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    where = f"{os.path.basename(checkout)} {workload} seed {seed}"
    if proc.returncode != 0 or not lines:
        sys.exit(f"{where}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"] != 0:
        sys.exit(f"{where}: incorrect answer or failed ops: {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def fmt(value):
    magnitude = abs(value)
    if magnitude >= 1000:
        return f"{value:,.0f}"
    if magnitude >= 100:
        return f"{value:.0f}"
    if magnitude >= 10:
        return f"{value:.1f}"
    if magnitude >= 1:
        return f"{value:.2f}"
    return f"{value:.3f}"


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, f"{fmt(median)} [{fmt(q1)}, {fmt(q3)}]"


def compare(bench, workloads, checkouts, env):
    base, work = checkouts
    metrics = bench["end_to_end"]
    print("| workload | metric | REV median [IQR] | change median [IQR] "
          "| change / REV | change better |")
    print("|---|---|---|---|---|---|")
    for workload in workloads:
        runs = {base: [], work: []}
        for pair in range(PAIRS):
            seed = pair + 1
            order = (base, work) if pair % 2 == 0 else (work, base)
            for checkout in order:
                runs[checkout].append(
                    run_once(bench["command"], checkout, env, workload, seed,
                             bench["run_seconds"]))
            print(f"  {workload} pair {seed}/{PAIRS} done", file=sys.stderr, flush=True)
        for metric in metrics:
            name = metric["name"]
            old = [r[name] for r in runs[base]]
            new = [r[name] for r in runs[work]]
            old_median, old_text = summary(old)
            new_median, new_text = summary(new)
            lower = metric["better"] == "lower"
            better = sum((n < o) if lower else (n > o) for o, n in zip(old, new))
            ratio = new_median / old_median if old_median else float("inf")
            print(f"| {workload} | {name} | {old_text} | {new_text} | {ratio:.2f} "
                  f"| {better}/{PAIRS} |", flush=True)


def main():
    if len(sys.argv) < 2 or sys.argv[1].startswith("-"):
        sys.exit(__doc__)
    rev, wanted = sys.argv[1], sys.argv[2:]
    root = git(os.getcwd(), "rev-parse", "--show-toplevel")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    unknown = [w for w in wanted if w not in names]
    if unknown:
        sys.exit(f"unknown workload(s) {unknown}; BENCHMARK.json has {names}")
    workloads = wanted or names
    base_commit = git(root, "rev-parse", "--verify", f"{rev}^{{commit}}")

    # Each side builds in its own checkout's perfbench/target.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    tmp = tempfile.mkdtemp(prefix="bench_ab-")
    checkouts = (os.path.join(tmp, "base"), os.path.join(tmp, "work"))
    try:
        work_commit = snapshot_worktree(root, tmp)
        print(f"REV {base_commit[:12]} vs working-tree snapshot {work_commit[:12]}", flush=True)
        for checkout, commit in zip(checkouts, (base_commit, work_commit)):
            git(root, "worktree", "add", "--detach", checkout, commit)
            build(bench["command"], checkout, env)
        compare(bench, workloads, checkouts, env)
    finally:
        for checkout in checkouts:
            if os.path.exists(checkout):
                subprocess.run(["git", "worktree", "remove", "--force", checkout],
                               cwd=root, capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=root, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
