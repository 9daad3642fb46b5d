#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, from
# the root of a checkout:
#
#   bash perfbench/run.sh --workload flood --seed 1 --seconds 10 --trace 0
#
# The binary and every Go cache and temporary directory live under
# .bench_build/ at the checkout root, so a run writes nothing outside the
# checkout. The build needs the repository's sources next to perfbench/; in
# a directory holding only the benchmark it fails and the script exits
# nonzero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
