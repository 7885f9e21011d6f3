#!/usr/bin/env bash
# The repo's CI gate, runnable locally: formatting, clippy, the
# workspace's own static analyzer, and the test suite. Any failure
# fails the script.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace -- -D warnings
# The criterion ablation benches, which nothing else compiles.
cargo clippy -q -p bmb-bench --all-targets -- -D warnings

echo "==> cargo doc (deny warnings)"
# Broken intra-doc links, and public docs that link private items.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> bmb-xtask lint"
# The per-pass line prints finding counts, not how much each pass
# analyzed, so a clean run alone cannot show a pass went blind. The
# durability pass guards its own target instead: a bmb-basket without
# `wal.rs`, or a `wal.rs` without `pub fn append*`, is itself a finding.
cargo run -q -p bmb-xtask -- lint

echo "==> bmb-xtask self-test (seeded-violation fixtures)"
# The analyzer's own suite lints the fixture workspace and asserts the
# exact findings — including that every pass reports at least one.
cargo test -q -p bmb-xtask

echo "==> cargo test"
cargo test -q --workspace

echo "==> WAL crash-recovery torture (bounded)"
# Randomized fault-point sweep over the write-ahead log; must finish
# well inside a minute or the gate fails.
timeout 60 cargo test -q --release -p bmb-core --test wal_torture

echo "==> checkpoint crash-recovery torture (bounded)"
# Same contract with checkpoints, segment rotation, and retention in
# the loop: 300+ planned directory-fault points, bit-identical answers.
timeout 60 cargo test -q --release -p bmb-core --test checkpoint_torture

echo "==> scrub at-rest corruption torture (bounded)"
# Exhaustive planned byte-flip sweep over every scrub-walked artifact
# (200+ points): one pass detects, quarantines, repairs byte-identical,
# and answers stay bit-identical to a never-corrupted store.
timeout 120 cargo test -q --release -p bmb-core --test scrub_torture

echo "==> kill -9 crash harness"
# Ten real SIGKILLs of a child server mid-ingest; every acked append
# must survive and recovery must replay only the post-checkpoint tail.
timeout 120 cargo test -q --release -p bmb-serve --test crash_kill

echo "==> kill -9 during scrub repair (two-node)"
# SIGKILL ladder across the quarantine → rebuild → publish window with
# a live repair peer: no kill point may lose acked epochs, and the
# directory must converge to a clean fsck.
timeout 120 cargo test -q --release -p bmb-cli --test scrub_kill

echo "==> cluster kill -9 / chaos torture / differential harness"
# SIGKILL one shard mid-query-storm (coordinator must degrade
# gracefully, never answer wrongly, and re-admit the revived shard),
# the 1-shard vs 4-shard bit-identity differential, and 20 seeded
# network-chaos schedules (fault proxy + generation-fenced failover):
# never a wrong answer, no acked ingest lost, no dual primaries.
timeout 240 cargo test -q --release -p bmb-cluster

echo "==> server smoke test"
./scripts/serve_smoke.sh

echo "==> metrics exposition smoke test"
./scripts/metrics_smoke.sh

echo "==> cluster smoke test (3 shards + coordinator + follower)"
./scripts/cluster_smoke.sh

echo "==> chaos smoke test (partition, fenced failover, heal, rejoin)"
./scripts/chaos_smoke.sh

echo "==> observability smoke test (trace tree, federation, event ledger)"
./scripts/obs_smoke.sh

echo "==> scrub smoke test (flip byte at rest, repair from follower, fsck clean)"
./scripts/scrub_smoke.sh

echo "==> perfbench answer checks (every BENCHMARK.json workload)"
# One short untraced run of the benchmark command per workload. Each
# run checks its own answers: sampled reads byte-identical to an
# in-process replay, ingest acks naming the exact epoch, coordinator
# answers equal to a single node's, mines equal to their reference and
# to perfbench/mine_quest_pins.tsv. A run passes only if it exits 0 and
# its last line has "correct":true and "failed":0. No timing is gated
# here; `scripts/bench_ab.py REV` compares timings in paired runs.
command_lines=$(python3 -c \
    'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
workload_lines=$(python3 -c \
    'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
mapfile -t bench_command <<< "$command_lines"
mapfile -t bench_workloads <<< "$workload_lines"
for workload in "${bench_workloads[@]}"; do
    if ! out=$("${bench_command[@]}" --workload "$workload" --seed 1 --seconds 2 --trace 0); then
        printf '%s\n' "$out"
        echo "perfbench $workload: exited non-zero"
        exit 1
    fi
    last=$(printf '%s\n' "$out" | tail -n 1)
    if ! python3 -c 'import json, sys; r = json.loads(sys.argv[1]); sys.exit(not (r["correct"] is True and r["failed"] == 0))' "$last"; then
        printf '%s\n' "$out"
        echo "perfbench $workload: incorrect answer or failed ops"
        exit 1
    fi
    echo "perfbench $workload: correct"
done

echo "CI: all gates passed"
