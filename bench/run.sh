#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the repository root and runs
# it there with the given arguments, e.g.
#   bash bench/run.sh -workload hollow-ring -seed 3 -seconds 20 -trace 0
#   bash bench/run.sh compare base.json head.json
# The Go build cache lives in .bench_build/ too, so nothing is written
# outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" GOFLAGS= GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0
go -C bench build -o "$build/atcbench" .
exec "$build/atcbench" "$@"
