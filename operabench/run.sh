#!/usr/bin/env bash
# Builds the OPERA benchmark from source and runs it:
#
#   bash operabench/run.sh --workload table1 --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (the Go build cache, Go's per-user config, temporary files, the binary
# and the traced pass's spans) stays under .bench_build/ there.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/operabench/go.mod" ]]; then
	echo "operabench: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOWORK=off
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"

if ! (cd "$root/operabench" && go build -o "$build/operabench" .) >&2; then
	echo "operabench: build failed" >&2
	exit 3
fi
exec "$build/operabench" "$@"
