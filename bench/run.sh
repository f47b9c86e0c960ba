#!/usr/bin/env bash
# Builds the end-to-end benchmark from source inside the checkout and runs it
# with the arguments given: BENCHMARK.json's command. Everything the Go
# toolchain writes (build cache, binary) stays under .bench_build in the
# checkout, and nothing is fetched.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

# bench/ is its own module (go.mod replaces crdbserverless with the checkout
# around it), so the build runs from there. An up-to-date binary is left alone.
(cd "$bench" && go build -o "$build/e2e" ./e2e)

exec "$build/e2e" "$@"
