#!/usr/bin/env bash
# End-to-end smoke test for the serving layer: start `bmb serve` on an
# ephemeral port, issue one chi2 query with `bmb query`, then shut the
# server down and require a clean exit from both processes.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="${BMB_BIN:-target/release/bmb}"
if [[ ! -x "$BIN" ]]; then
    echo "==> building bmb ($BIN not found)"
    cargo build --release -q -p bmb-cli
fi

LOG="$(mktemp)"
SERVER_PID=""
cleanup() {
    [[ -n "$SERVER_PID" ]] && kill -9 "$SERVER_PID" 2>/dev/null || true
    rm -f "$LOG"
}
trap cleanup EXIT

"$BIN" serve --items 4 --addr 127.0.0.1:0 >"$LOG" &
SERVER_PID=$!

# Wait for the server to print its ephemeral address.
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/^listening on //p' "$LOG" | head -n 1)"
    [[ -n "$ADDR" ]] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "server died early:"; cat "$LOG"; exit 1; }
    sleep 0.1
done
[[ -n "$ADDR" ]] || { echo "server never reported an address"; cat "$LOG"; exit 1; }
echo "==> server up at $ADDR"

RESPONSE="$("$BIN" query "$ADDR" \
    '{"id":1,"cmd":"ingest","baskets":[[0,1],[0,1],[2],[0,3]]}' \
    '{"id":2,"cmd":"chi2","items":[0,1]}')"
echo "$RESPONSE"
grep -q '"support":2' <<<"$RESPONSE" || { echo "chi2 response missing expected support"; exit 1; }

"$BIN" query "$ADDR" '{"cmd":"shutdown"}' >/dev/null
wait "$SERVER_PID"
SERVER_PID="" # reaped: nothing left for the trap to kill
grep -q '^served ' "$LOG" || { echo "server did not report its final stats"; cat "$LOG"; exit 1; }
echo "serve smoke: OK"
