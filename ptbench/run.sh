#!/usr/bin/env bash
# Builds ptbench from source and runs it with the given arguments, e.g.
#
#   bash ptbench/run.sh --workload live-rw --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and
# the benchmark's scratch files all live under .bench_build.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal/serve ]; then
	echo "ptbench: run from the repository root; the ptx module was not found" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
(cd ptbench && go build -o "$out/ptbench" .)
exec "$out/ptbench" --work "$out/ptbench-work" "$@"
