#!/usr/bin/env bash
# End-to-end smoke test for the sharded cluster: three `bmb cluster
# shard` processes, one coordinator, and one follower tailing shard 0.
# Ingests through the coordinator, checks a chi2 answer carries the
# 3-slot epoch vector, then SIGKILLs shard 0 and requires the
# coordinator to promote the follower and keep answering with the same
# support — never a wrong or permanent-error response. A `topk` (one
# `pair_supports` scatter) before the kill and after the promotion must
# rank the same pairs.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="${BMB_BIN:-target/release/bmb}"
if [[ ! -x "$BIN" ]]; then
    echo "==> building bmb ($BIN not found)"
    cargo build --release -q -p bmb-cli
fi

WORK="$(mktemp -d)"
PIDS=()
cleanup() {
    for pid in "${PIDS[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
    rm -rf "$WORK"
}
trap cleanup EXIT

# Polls a role's log for its announced address.
wait_addr() {
    local log="$1" role="$2" addr=""
    for _ in $(seq 1 100); do
        # The address is the first word: shard/follower announcements
        # trail it with "(generation N)".
        addr="$(sed -n "s/^${role} listening on //p" "$log" | head -n 1 | awk '{print $1}')"
        [[ -n "$addr" ]] && { echo "$addr"; return 0; }
        sleep 0.1
    done
    echo "no ${role} address in $log" >&2
    cat "$log" >&2
    return 1
}

echo "==> starting 3 shards"
SHARD_ADDRS=()
for i in 0 1 2; do
    "$BIN" cluster shard --dir "$WORK/s$i" --items 8 --addr 127.0.0.1:0 \
        >"$WORK/s$i.log" &
    PIDS+=($!)
    disown
done
for i in 0 1 2; do
    SHARD_ADDRS+=("$(wait_addr "$WORK/s$i.log" shard)")
done
echo "    shards at ${SHARD_ADDRS[*]}"

echo "==> starting follower (tailing shard 0)"
"$BIN" cluster follow --dir "$WORK/f0" --items 8 \
    --primary "${SHARD_ADDRS[0]}" --poll-ms 10 --addr 127.0.0.1:0 \
    >"$WORK/f0.log" &
PIDS+=($!)
disown
FOLLOWER_ADDR="$(wait_addr "$WORK/f0.log" follower)"
echo "    follower at $FOLLOWER_ADDR"

echo "==> starting coordinator"
"$BIN" cluster serve --items 8 \
    --shards "${SHARD_ADDRS[0]},${SHARD_ADDRS[1]},${SHARD_ADDRS[2]}" \
    --followers "$FOLLOWER_ADDR,," --round-robin --addr 127.0.0.1:0 \
    >"$WORK/coord.log" &
PIDS+=($!)
disown
COORD_ADDR="$(wait_addr "$WORK/coord.log" coordinator)"
echo "    coordinator at $COORD_ADDR"

echo "==> ingest + query through the coordinator"
RESPONSE="$("$BIN" query "$COORD_ADDR" \
    '{"id":1,"cmd":"ingest","baskets":[[0,1],[0,1],[2],[0,3],[0,1,2],[1,3]]}' \
    '{"id":2,"cmd":"chi2","items":[0,1]}')"
echo "$RESPONSE"
grep -q '"epochs":\[2,2,2\]' <<<"$RESPONSE" || { echo "unexpected epoch vector"; exit 1; }
# Key the extraction on the chi2 response's id — position-based "first
# support in the transcript" silently reads the wrong line if an
# earlier response ever grows a support field.
SUPPORT="$(grep '"id":2' <<<"$RESPONSE" | grep -o '"support":[0-9]*' | head -n 1)"
[[ "$SUPPORT" == '"support":3' ]] || { echo "wrong support before kill: $SUPPORT"; exit 1; }

# The `pairs` of the response line with id $1, read from stdin; fails
# unless that response is "ok":true.
topk_pairs() {
    python3 -c '
import json, sys
want = int(sys.argv[1])
for line in sys.stdin:
    if not line.startswith("{"):
        continue
    r = json.loads(line)
    if r.get("id") == want:
        if r.get("ok") is not True:
            sys.exit("topk failed: " + line.strip())
        print(json.dumps(r["result"]["pairs"], sort_keys=True))
        sys.exit(0)
sys.exit("no response with id %d" % want)
' "$1"
}

echo "==> topk through the coordinator (pair_supports scatter)"
TOPK_BEFORE="$("$BIN" query "$COORD_ADDR" '{"id":4,"cmd":"topk","k":5}')"
PAIRS_BEFORE="$(topk_pairs 4 <<<"$TOPK_BEFORE")" \
    || { echo "topk before kill failed: $TOPK_BEFORE"; exit 1; }
[[ "$PAIRS_BEFORE" == '[{'* ]] || { echo "topk ranked no pairs: $TOPK_BEFORE"; exit 1; }

echo "==> waiting for the follower to catch up to shard 0"
for _ in $(seq 1 100); do
    LAG="$("$BIN" query "$FOLLOWER_ADDR" '{"cmd":"stats"}' \
        | grep -o '"replication_lag":[0-9]*' || true)"
    EPOCH="$("$BIN" query "$FOLLOWER_ADDR" '{"cmd":"stats"}' \
        | grep -o '"epoch":[0-9]*' | head -n 1 || true)"
    [[ "$LAG" == '"replication_lag":0' && "$EPOCH" != '"epoch":0' ]] && break
    sleep 0.1
done
[[ "$LAG" == '"replication_lag":0' ]] || { echo "follower never caught up ($LAG)"; exit 1; }
echo "    follower caught up ($EPOCH)"

echo "==> SIGKILL shard 0; reads must fail over to the follower"
kill -9 "${PIDS[0]}"
# The first request after the kill may surface as a retryable error
# while the coordinator marks the shard down; retry a few times, but a
# wrong answer is an immediate failure.
OK=""
for _ in $(seq 1 20); do
    AFTER="$("$BIN" query "$COORD_ADDR" '{"id":3,"cmd":"chi2","items":[0,1]}')"
    if grep -q '"ok":true' <<<"$AFTER"; then
        SUPPORT_AFTER="$(grep '"id":3' <<<"$AFTER" | grep -o '"support":[0-9]*' | head -n 1)"
        [[ "$SUPPORT_AFTER" == '"support":3' ]] \
            || { echo "WRONG ANSWER after kill: $AFTER"; exit 1; }
        OK=1
        break
    fi
    grep -q '"retryable":true' <<<"$AFTER" \
        || { echo "non-retryable failure after kill: $AFTER"; exit 1; }
    sleep 0.2
done
[[ -n "$OK" ]] || { echo "coordinator never recovered after the kill"; exit 1; }
echo "$AFTER"

echo "==> topk after promotion ranks the same pairs"
TOPK_AFTER="$("$BIN" query "$COORD_ADDR" '{"id":5,"cmd":"topk","k":5}')"
PAIRS_AFTER="$(topk_pairs 5 <<<"$TOPK_AFTER")" \
    || { echo "topk after promotion failed: $TOPK_AFTER"; exit 1; }
[[ "$PAIRS_AFTER" == "$PAIRS_BEFORE" ]] \
    || { echo "WRONG topk after promotion: $PAIRS_AFTER vs $PAIRS_BEFORE"; exit 1; }

echo "==> promotion is visible in coordinator stats"
STATS="$("$BIN" query "$COORD_ADDR" '{"cmd":"stats"}')"
grep -q '"promotions":1' <<<"$STATS" || { echo "no promotion recorded: $STATS"; exit 1; }

echo "==> wal inspect --dir over a shard's rotated segments"
"$BIN" wal inspect --dir "$WORK/s1" | grep -q 'base epoch' \
    || { echo "wal inspect --dir failed"; exit 1; }

echo "cluster smoke: OK"
