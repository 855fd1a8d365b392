#!/usr/bin/env bash
# Builds memdep-server and the perfbench harness from this checkout, then
# runs one benchmark workload with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload warm-hits --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root.  Everything it builds, caches and writes
# stays under the build directory ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/memdep-server || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a memdep checkout" >&2
	exit 2
fi
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build == /* ]] || build=$root/$build

# Keep the Go caches and temporaries inside the checkout, never fetch
# anything, and build with the checkout's own toolchain settings.
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOTMPDIR=$build/tmp
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOENV=off TMPDIR=$build/tmp
mkdir -p "$build/bin" "$build/tmp"

go build -o "$build/bin/memdep-server" ./cmd/memdep-server
(cd perfbench && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -server "$build/bin/memdep-server" \
	-workdir "$build/run-$$" -spans "$build/spans" "$@"
