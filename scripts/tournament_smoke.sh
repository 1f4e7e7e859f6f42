#!/usr/bin/env bash
# Tournament smoke test: the CI job and `make tournament-smoke` both run
# this.
#
# Plays the full registered scheme×attack matrix through cmd/tournament
# at 2^10 lines, asserts that every playable cell of the plugin registry
# completed, requires the CSV to equal the committed golden
# results/tournament_smoke.csv (so any change in an attack's write count
# fails), and proves the checkpoint/resume path by re-running the grid
# and requiring a byte-identical CSV. The output directory can be
# pinned with TOURNAMENT_OUT (CI does, to upload the CSV as an
# artifact); otherwise everything lands in a temp dir.
set -euo pipefail
cd "$(dirname "$0")/.."

LINES=${TOURNAMENT_LINES:-1024}
ENDURANCE=${TOURNAMENT_ENDURANCE:-3000}

tmp=$(mktemp -d)
out=${TOURNAMENT_OUT:-$tmp/out}
mkdir -p "$out"
cleanup() { rm -rf "$tmp"; }
trap cleanup EXIT

go build -o "$tmp/tournament" ./cmd/tournament

echo "== playable matrix"
"$tmp/tournament" -list | tee "$tmp/list.out"
expected=$(grep -c 'playable$' "$tmp/list.out")
[ "$expected" -gt 0 ] || { echo "FAIL: registry lists no playable cells"; exit 1; }

echo "== full matrix at $LINES lines (expecting $expected cells)"
"$tmp/tournament" -lines "$LINES" -endurance "$ENDURANCE" -quiet \
    -ckpt "$tmp/ckpt" -out "$out/tournament.csv" -meta "$out/runmeta.json"

# Every playable cell must appear in the CSV, and every one of them must
# have completed: the status column is looked up from the header so the
# check survives metric additions.
status_col=$(head -1 "$out/tournament.csv" | tr ',' '\n' | grep -n '^status$' | cut -d: -f1)
[ -n "$status_col" ] || { echo "FAIL: CSV has no status column"; exit 1; }
rows=$(tail -n +2 "$out/tournament.csv" | wc -l)
done_rows=$(tail -n +2 "$out/tournament.csv" | awk -F, -v c="$status_col" '$c == "done"' | wc -l)
echo "== $done_rows/$rows cells done ($expected registered)"
[ "$rows" -eq "$expected" ] || { echo "FAIL: CSV has $rows cells, registry plays $expected"; exit 1; }
[ "$done_rows" -eq "$expected" ] || { echo "FAIL: only $done_rows/$expected cells completed"; exit 1; }

# The golden pins the default geometry; overridden sizes skip it.
golden=results/tournament_smoke.csv
if [ "$LINES" = 1024 ] && [ "$ENDURANCE" = 3000 ]; then
    echo "== fresh CSV must equal $golden"
    cmp "$golden" "$out/tournament.csv" \
        || { echo "FAIL: tournament CSV differs from $golden"; diff "$golden" "$out/tournament.csv" || true; exit 1; }
fi

echo "== resume must be byte-identical"
"$tmp/tournament" -lines "$LINES" -endurance "$ENDURANCE" -quiet \
    -ckpt "$tmp/ckpt" -resume -out "$tmp/resumed.csv"
cmp "$out/tournament.csv" "$tmp/resumed.csv" \
    || { echo "FAIL: resumed CSV differs from the fresh run"; exit 1; }

echo "== tournament smoke OK"
