#!/usr/bin/env bash
# Builds the harness inside the checkout (build cache included, so nothing
# outside the checkout is written) and runs it with the given arguments.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/../.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/ntga-benchmark" .)
cd "$here"
exec "$build/ntga-benchmark" "$@"
