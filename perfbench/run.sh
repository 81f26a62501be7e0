#!/usr/bin/env bash
# Builds the nowomp benchmark from the sources of the checkout it sits
# in and runs one workload:
#
#   bash perfbench/run.sh --workload kernels --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the checkout root (Go caches, the binary, traces). The last line of
# standard output is the result JSON; build output goes to stderr.
set -euo pipefail

cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out/trace" "$@"
