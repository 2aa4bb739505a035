#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout's root:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write (Go build cache, binary, temporary
# files, reports, span files, profiles) lands under .bench_build/ in the
# checkout. In a directory without the repository's sources the build, and
# so this script, fails.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/acrossbench" .)
cd "$root"
exec "$build/acrossbench" "$@"
