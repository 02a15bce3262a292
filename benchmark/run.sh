#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash benchmark/run.sh --workload proto.phttp-local --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache and temporary files under .bench_build/, the traced run's span
# files under benchmark/out/. The benchmark is a module of its own
# (benchmark/go.mod) that imports the repository's internal packages; in a
# directory without the repository the build fails and so does this script.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOENV=off
export GOFLAGS=-mod=readonly
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$here" && go build -o "$build/phttp-benchmark" .)
cd "$root"
exec "$build/phttp-benchmark" "$@"
