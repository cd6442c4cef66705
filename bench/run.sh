#!/usr/bin/env bash
# Entry point of the benchmark: builds it from source into .bench_build at
# the root of the checkout (Go's build cache included, so nothing is written
# outside the checkout) and runs it with the arguments given.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
go -C "$root/bench" build -o "$build/gamelens-bench" .
exec "$build/gamelens-bench" -dir "$root/bench" "$@"
