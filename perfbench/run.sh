#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload tcp_mixed --seed 1 --seconds 25 --trace 0
#
# Run it from the root of the repository. The Go build cache, the
# temporary files of the build and the binary all stay under the build
# directory ($CARGO_TARGET_DIR, default .bench_build) of the checkout.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOMODCACHE=$build/gomod
export GOPATH=$build/gopath GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
