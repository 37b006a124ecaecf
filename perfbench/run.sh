#!/usr/bin/env bash
# Builds the host-time benchmark from this checkout's sources and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
# Everything the build writes (Go build cache, binary, temp files) and every
# file a run writes (store roots, span dumps, fingerprints) stays under the
# build directory: $CARGO_TARGET_DIR when set, .bench_build otherwise.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-path" "$build/config"

export GOCACHE=$build/go-cache
export GOTMPDIR=$build/go-tmp
export GOPATH=$build/go-path
export GOMODCACHE=$build/go-path/pkg/mod
export XDG_CONFIG_HOME=$build/config
export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" --root "$root" --build "$build" "$@"
