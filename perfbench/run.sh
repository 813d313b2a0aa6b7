#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it from the checkout's root with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload udp-rpc --seed 1 --seconds 10 --trace 0
#
# The Go build cache and the binary live in .bench_build/ at the root, so
# nothing is read from or written to outside the checkout but the Go
# toolchain itself. A build failure (for instance when the repository's
# module is missing) exits non-zero before any result is printed.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
