#!/usr/bin/env bash
# Builds the benchmark and buzzd from this checkout and runs the benchmark
# with the given flags (see bench/README.md):
#
#   bash bench/run.sh --workload headline --seed 0 --seconds 16 --trace 0
#   bash bench/run.sh compare <parent-results-dir> <change-results-dir>
#
# Everything the build and the runs write stays under the build directory,
# $CARGO_TARGET_DIR or .bench_build at the repository root: the Go build
# cache, the binaries, the daemon's socket, results and span logs.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d internal || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: $root is not a checkout of the repository" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/bin" "$build/tmp" "$build/results"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off CGO_ENABLED=0

go -C bench build -o "$build/bin/bench" .
go -C bench build -o "$build/bin/buzzd" repro/cmd/buzzd

# The daemon's socket path must fit a sockaddr_un, so it is given
# relative to the repository root when the build directory is inside it.
work="$build"
case "$build" in
"$root"/*) work="${build#"$root"/}" ;;
esac

if [[ "${1:-}" == "compare" ]]; then
	exec "$build/bin/bench" "$@"
fi
exec "$build/bin/bench" -root . -out "$build/results" -work "$work" -buzzd "$build/bin/buzzd" "$@"
