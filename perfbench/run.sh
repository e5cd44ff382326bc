#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The binary, the Go build cache, Go's own
# config and the benchmark's scratch files all stay under .bench_build/.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
(
	cd "$root/perfbench"
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOPATH="$build/home/go" \
		GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS= CGO_ENABLED=0 \
		GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$build/perfbench" .
)
exec "$build/perfbench" "$@"
