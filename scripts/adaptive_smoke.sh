#!/usr/bin/env bash
# Adaptive-level smoke test: the CI job and `make adaptive-smoke` both
# run this.
#
# Boots memctld with the adaptive security level (-scheme
# srbsg+adaptive), then drives it with loadgen twice: a benign uniform
# stream (the level must not move) and the escalating attack stream
# (the level must escalate at least once, and loadgen must report the
# time to first escalation). Finishes with a SIGTERM drain and checks
# the daemon printed its adaptive-level summary.
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
go build -o "$tmp/waitready" ./cmd/waitready

# One bank keeps every write in one controller's monitor; the short
# interval closes remap rounds (the only instants the level can move)
# every few thousand writes, so a 2s stream crosses many boundaries.
"$tmp/memctld" -addr 127.0.0.1:0 -addr-file "$tmp/addr" \
    -binary-addr 127.0.0.1:0 -binary-addr-file "$tmp/binaddr" \
    -scheme srbsg+adaptive -banks 1 -lines 4096 \
    -regions 16 -interval 8 -stages 4 2>"$tmp/server.log" &
pid=$!

"$tmp/waitready" -timeout 30s "$tmp/addr" "$tmp/binaddr" >/dev/null \
    || { echo "FAIL: server never bound"; cat "$tmp/server.log"; exit 1; }
addr="http://$(cat "$tmp/addr")"
binaddr="$(cat "$tmp/binaddr")"
echo "== memctld (srbsg+adaptive) up at $addr"

scrape() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$addr/metrics"
    else
        wget -qO- "$addr/metrics"
    fi
}
metric() { # sum a counter/gauge over banks
    scrape | awk -v name="$1" 'index($0, "memctld_" name "{") == 1 { sum += $2 } END { print sum + 0 }'
}

echo "== benign uniform stream (level must never rise)"
"$tmp/loadgen" -addr "$addr" -binary-addr "$binaddr" -workers 4 -duration 2s -pattern uniform | tee "$tmp/uniform.out"
raises=$(metric level_raises_total)
[ "$raises" = "0" ] || { echo "FAIL: benign traffic escalated the level $raises times"; exit 1; }
level=$(metric security_level)
# Quiet traffic may relax the level toward -level-min; it must not rise.
[ "$level" -le 4 ] || { echo "FAIL: level is $level after benign traffic, want at most the boot level 4"; exit 1; }

echo "== escalating attack stream (level must escalate)"
"$tmp/loadgen" -addr "$addr" -binary-addr "$binaddr" -workers 4 -duration 2s -pattern escalate -ramp 20000 | tee "$tmp/escalate.out"
grep -q "first escalation after" "$tmp/escalate.out" \
    || { echo "FAIL: loadgen reported no escalation under attack"; exit 1; }
raises=$(metric level_raises_total)
[ "$raises" != "0" ] || { echo "FAIL: attack stream left level_raises_total at zero"; exit 1; }
level=$(metric security_level)
[ "$level" -gt 4 ] || { echo "FAIL: level is $level under attack, want above the boot level 4"; exit 1; }
echo "== level escalated to $level after $raises raises"

echo "== SIGTERM → graceful drain"
kill -TERM "$pid"
wait "$pid" || { echo "FAIL: memctld exited non-zero"; cat "$tmp/server.log"; exit 1; }
pid=""
grep -q "drained cleanly" "$tmp/server.log" \
    || { echo "FAIL: no clean-drain marker"; cat "$tmp/server.log"; exit 1; }
grep -q "adaptive level:" "$tmp/server.log" \
    || { echo "FAIL: drain summary missing the adaptive-level line"; cat "$tmp/server.log"; exit 1; }
grep -q "level change:" "$tmp/server.log" \
    || { echo "FAIL: no level-change events logged"; cat "$tmp/server.log"; exit 1; }

echo "== adaptive smoke OK"
