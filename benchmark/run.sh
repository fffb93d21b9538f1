#!/usr/bin/env bash
# Builds the benchmark and hybrid-shardd from source and runs the benchmark
# with the given arguments.  Everything it writes stays inside the checkout:
# binaries, Go's build cache and temporary files under .bench_build/, WAL and
# shard directories, traces and results under benchmark/out/.
#
#   bash benchmark/run.sh                                  all workloads, all metrics
#   bash benchmark/run.sh -workload wire-cross -trace 0 -seed 3 -seconds 20
#   bash benchmark/run.sh -compare old.json new.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$here/out"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local

commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"

# Building is excluded from setup_s and reported as client.build_s.
t0="$EPOCHREALTIME"
(cd "$here" && go build -o "$build/hybrid-benchmark" . && go build -o "$build/hybrid-shardd" hybridcc/cmd/hybrid-shardd)
build_s="$(awk -v a="$t0" -v b="$EPOCHREALTIME" 'BEGIN { printf "%.6f", b - a }')"

exec "$build/hybrid-benchmark" -shardd "$build/hybrid-shardd" -outdir "$here/out" \
	-build-s "$build_s" -commit "$commit" "$@"
