#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ under the current directory (the
# root of a checkout) and runs it with the given arguments. The Go build
# cache is kept there too, so a run reads and writes nothing outside the
# checkout. BENCHMARK.json names this script as the benchmark's command.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -C "$here" -o "$out/sfs-perfbench" .
exec "$out/sfs-perfbench" "$@"
