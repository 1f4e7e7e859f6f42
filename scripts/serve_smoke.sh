#!/usr/bin/env bash
# Server smoke test: the CI job and `make serve-smoke` both run this.
#
# First checks that a memctld sent SIGTERM the moment waitready sees it
# ready still drains cleanly. Then boots memctld on random ports
# (binary data plane, HTTP control plane), probes the binary listener
# with binprobe (round trip + version skew), drives it with loadgen for
# ~2s under the benign and the attack-shaped stream, asserts the
# detector told them apart and that the served line-op counter equals
# the ops loadgen saw answered, and checks the daemon drains cleanly
# on SIGTERM.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/memctld" ./cmd/memctld
go build -o "$tmp/loadgen" ./cmd/loadgen
go build -o "$tmp/binprobe" ./cmd/binprobe
go build -o "$tmp/waitready" ./cmd/waitready

echo "== SIGTERM the moment memctld looks ready (must still drain)"
"$tmp/memctld" -addr 127.0.0.1:0 -addr-file "$tmp/fast.ctl" \
    -binary-addr 127.0.0.1:0 -binary-addr-file "$tmp/fast.bin" \
    -banks 2 -lines 4096 2>"$tmp/fast.log" &
pid=$!
"$tmp/waitready" -timeout 30s "$tmp/fast.ctl" "$tmp/fast.bin" >/dev/null
kill -TERM "$pid"
wait "$pid" || { echo "FAIL: memctld killed by an early SIGTERM"; cat "$tmp/fast.log"; exit 1; }
pid=""
grep -q "drained cleanly" "$tmp/fast.log" \
    || { echo "FAIL: early SIGTERM did not drain"; cat "$tmp/fast.log"; exit 1; }

"$tmp/memctld" -addr 127.0.0.1:0 -addr-file "$tmp/addr" \
    -binary-addr 127.0.0.1:0 -binary-addr-file "$tmp/binaddr" \
    -banks 8 -lines $((1 << 20)) 2>"$tmp/server.log" &
pid=$!
"$tmp/waitready" -timeout 30s "$tmp/addr" "$tmp/binaddr" >/dev/null \
    || { echo "FAIL: server never bound"; cat "$tmp/server.log"; exit 1; }
addr="http://$(cat "$tmp/addr")"
binaddr="$(cat "$tmp/binaddr")"
echo "== memctld up at $addr (binary $binaddr)"

echo "== binary probe: round trip and version skew"
"$tmp/binprobe" -addr "$binaddr"
"$tmp/binprobe" -addr "$binaddr" -skew

fetch() { # fetch URL OUTFILE
    if command -v curl >/dev/null 2>&1; then curl -fsS "$1" > "$2"
    else wget -qO- "$1" > "$2"; fi
}
# The binprobe ops above are served too: count the legs from here.
fetch "$addr/metrics" "$tmp/before.out"

echo "== uniform stream (detector must stay quiet)"
"$tmp/loadgen" -addr "$addr" -binary-addr "$binaddr" \
    -workers 8 -duration 2s -pattern uniform | tee "$tmp/uniform.out"
grep -q "detector alarms: 0 (run)" "$tmp/uniform.out" \
    || { echo "FAIL: uniform traffic raised alarms"; exit 1; }
ops=$(sed -n 's/^sustained: \([0-9]*\) line-ops.*/\1/p' "$tmp/uniform.out")
[ -n "$ops" ] && [ "$ops" -gt 0 ] \
    || { echo "FAIL: no sustained throughput reported"; exit 1; }

echo "== attack-shaped stream (detector must alarm)"
"$tmp/loadgen" -addr "$addr" -binary-addr "$binaddr" \
    -workers 8 -duration 2s -pattern attack | tee "$tmp/attack.out"
grep -q "detector alarms: 0 (run)" "$tmp/attack.out" \
    && { echo "FAIL: attack stream raised no alarm"; exit 1; }

echo "== scraping /metrics"
fetch "$addr/metrics" "$tmp/metrics.out"
grep -q '^memctld_demand_writes_total' "$tmp/metrics.out" \
    || { echo "FAIL: /metrics missing counters"; exit 1; }
awk '/^memctld_detector_alarms_total{/ { sum += $2 } END { exit !(sum > 0) }' "$tmp/metrics.out" \
    || { echo "FAIL: /metrics detector-alarm counter still zero"; exit 1; }
# Every op loadgen saw answered was counted by the server, and no more.
sent=$(cat "$tmp/uniform.out" "$tmp/attack.out" \
    | sed -n 's/^sustained: .*(\([0-9]*\) ops in .*/\1/p' | awk '{ sum += $1 } END { print sum + 0 }')
served=$(awk '/^memctld_binary_line_ops_total / { v = $2 } END { printf "%d", v }' "$tmp/metrics.out")
base=$(awk '/^memctld_binary_line_ops_total / { v = $2 } END { printf "%d", v }' "$tmp/before.out")
[ "$((served - base))" -eq "$sent" ] && [ "$sent" -gt 0 ] \
    || { echo "FAIL: /metrics counted $((served - base)) binary line ops, loadgen saw $sent answered"; exit 1; }
echo "== binary_line_ops_total +$((served - base)) = loadgen's $sent answered ops"

echo "== SIGTERM → graceful drain (both listeners live)"
kill -TERM "$pid"
wait "$pid" || { echo "FAIL: memctld exited non-zero"; cat "$tmp/server.log"; exit 1; }
pid=""
grep -q "drained cleanly" "$tmp/server.log" \
    || { echo "FAIL: no clean-drain marker"; cat "$tmp/server.log"; exit 1; }

echo "== server smoke OK"
