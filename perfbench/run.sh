#!/usr/bin/env bash
# Builds cmd/hillview, cmd/hillview-worker and the benchmark from source,
# then runs one benchmark invocation. Run it from the repository root:
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/hillview ] || [ ! -d cmd/hillview-worker ]; then
	echo "run.sh: the program's sources (go.mod, cmd/hillview, cmd/hillview-worker) are not here; run it from the repository root" >&2
	exit 1
fi

out="$(pwd)/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
# With telemetry on, the go command forks a detached child that outlives
# the build; turn it off in the fresh config directory before the first
# go invocation.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf off > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/bin/" ./cmd/hillview ./cmd/hillview-worker >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
