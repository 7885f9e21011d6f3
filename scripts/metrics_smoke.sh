#!/usr/bin/env bash
# Observability smoke test: start `bmb serve` with a checkpoint
# directory (its WAL) and a Prometheus /metrics listener, drive one query of each hot path
# (ingest -> WAL, chi2 -> caches, border -> miner stages), then scrape
# /metrics over plain HTTP and validate that
#   * every exposition line parses (`# HELP`/`# TYPE` or `name[{labels}] value`),
#   * the required metric families from each crate are present,
#   * histogram buckets are cumulative and `+Inf` equals `_count`.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="${BMB_BIN:-target/release/bmb}"
if [[ ! -x "$BIN" ]]; then
    echo "==> building bmb ($BIN not found)"
    cargo build --release -q -p bmb-cli
fi

LOG="$(mktemp)"
WAL_DIR="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    [[ -n "$SERVER_PID" ]] && kill -9 "$SERVER_PID" 2>/dev/null || true
    rm -rf "$LOG" "$WAL_DIR"
}
trap cleanup EXIT

"$BIN" serve --items 8 --checkpoint-dir "$WAL_DIR" --addr 127.0.0.1:0 \
    --metrics-addr 127.0.0.1:0 >"$LOG" &
SERVER_PID=$!

# Wait for both listeners to be announced.
ADDR=""
METRICS=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/^listening on //p' "$LOG" | head -n 1)"
    METRICS="$(sed -n 's|^metrics on http://||p' "$LOG" | sed 's|/metrics$||' | head -n 1)"
    [[ -n "$ADDR" && -n "$METRICS" ]] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "server died early:"; cat "$LOG"; exit 1; }
    sleep 0.1
done
[[ -n "$ADDR" && -n "$METRICS" ]] || { echo "server never reported its addresses"; cat "$LOG"; exit 1; }
echo "==> server up at $ADDR, metrics at $METRICS"

# One request per hot path: WAL append+sync, cache fill+hit, miner run.
"$BIN" query "$ADDR" \
    '{"id":1,"cmd":"ingest","baskets":[[0,1],[0,1,2],[2],[0,1],[1,2,3],[0]]}' \
    '{"id":2,"cmd":"chi2","items":[0,1]}' \
    '{"id":3,"cmd":"chi2","items":[0,1]}' \
    '{"id":4,"cmd":"topk","k":2}' \
    '{"id":5,"cmd":"border","support":1}' >/dev/null

# Scrape /metrics over raw HTTP (bash /dev/tcp: no curl dependency).
# The server drains the request head best-effort (500ms): on a loaded
# machine it may answer and close before our GET lands, so a failed
# write is tolerated — the response is still buffered for reading.
HOST="${METRICS%:*}"
PORT="${METRICS##*:}"
trap '' PIPE
exec 3<>"/dev/tcp/${HOST}/${PORT}"
printf 'GET /metrics HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n' >&3 2>/dev/null || true
RESPONSE="$(cat <&3)"
exec 3<&- 3>&- || true
trap - PIPE

grep -q '200 OK' <<<"$RESPONSE" || { echo "metrics scrape was not a 200:"; echo "$RESPONSE" | head -n 5; exit 1; }
# Body = everything after the first blank line (header/body separator).
BODY="$(awk 'body {print} /^\r?$/ {body=1}' <<<"$RESPONSE")"
[[ -n "$BODY" ]] || { echo "metrics response had no body"; exit 1; }

# Every line must parse as exposition text.
echo "$BODY" | awk '
    /^#( HELP| TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*/ { next }
    /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]/ { next }
    /^\r?$/ { next }
    { print "unparseable exposition line: " $0; bad = 1 }
    END { exit bad }
'

# The required families from each instrumented crate.
for family in \
    bmb_serve_requests_total \
    bmb_serve_request_us \
    bmb_serve_active_connections \
    bmb_core_cache_hits_total \
    bmb_core_cache_misses_total \
    bmb_core_miner_stage_us \
    bmb_basket_wal_appends_total \
    bmb_basket_wal_syncs_total \
    bmb_basket_wal_sync_us \
    bmb_basket_wal_degraded; do
    grep -q "^${family}" <<<"$BODY" || { echo "missing metric family ${family}"; echo "$BODY" | head -n 40; exit 1; }
done

# The engine's one cache is the table LRU: the repeated chi2 above hit
# it, by its label. The retired per-segment support cache exports no
# series at all.
grep -Eq '^bmb_core_cache_hits_total\{cache="table"\} [1-9]' <<<"$BODY" \
    || { echo 'no table-LRU hit in bmb_core_cache_hits_total{cache="table"}'; grep '^bmb_core_cache' <<<"$BODY"; exit 1; }
if grep -q 'cache="segment"' <<<"$BODY"; then
    echo 'retired cache="segment" series still exported:'
    grep 'cache="segment"' <<<"$BODY"
    exit 1
fi

# Histogram sanity on the chi2 latency series: buckets cumulative,
# +Inf == _count, and the two chi2 requests were both recorded.
echo "$BODY" | awk '
    /^bmb_serve_request_us_bucket\{cmd="chi2"/ {
        if ($2 + 0 < prev + 0) { print "non-cumulative bucket: " $0; exit 1 }
        prev = $2; inf = $2
    }
    /^bmb_serve_request_us_count\{cmd="chi2"\}/ { count = $2 }
    END {
        if (count + 0 != 2) { print "expected 2 chi2 requests, saw " count; exit 1 }
        if (inf + 0 != count + 0) { print "+Inf bucket " inf " != _count " count; exit 1 }
    }
'

"$BIN" query "$ADDR" '{"cmd":"shutdown"}' >/dev/null
wait "$SERVER_PID"
SERVER_PID="" # reaped: nothing left for the trap to kill
echo "metrics smoke: OK"
