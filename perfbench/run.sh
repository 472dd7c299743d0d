#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments. Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload mut-podem --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, serve-mix data
# directories and traced-run span files.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a checkout of the repository" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"

# Keep the toolchain's caches, scratch files and settings inside the
# checkout, and never let it fetch anything.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
