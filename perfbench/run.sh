#!/usr/bin/env bash
# Builds memctld, memrouterd and the benchmark program from source, then
# runs the program with the given arguments:
#
#   bash perfbench/run.sh --workload serve-router --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes lands
# under .bench_build/ in that root, Go's build cache included.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/memctld" ] || [ ! -d "$root/cmd/memrouterd" ]; then
    echo "perfbench: run from the repository root (cmd/memctld and cmd/memrouterd not found)" >&2
    exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

go build -o "$out/bin/memctld" ./cmd/memctld
go build -o "$out/bin/memrouterd" ./cmd/memrouterd
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/run" "$@"
