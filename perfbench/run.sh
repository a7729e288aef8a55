#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload fleet-local --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build and module caches, the go command's
# configuration, temporary files and the workloads' data directories.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" --workdir "$build/data" "$@"
