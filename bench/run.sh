#!/usr/bin/env bash
# Builds the server under test (cmd/tplserved) and the benchmark program
# from this checkout, then runs one benchmark workload against a child
# tplserved process. Run it from the repository root:
#
#   bash bench/run.sh --workload ingest-steady --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binaries,
# state dirs, span files) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

go build -o "$out/tplserved" ./cmd/tplserved >&2
go -C bench build -o "$out/bench" . >&2
exec "$out/bench" -server "$out/tplserved" -workdir "$out/tmp" "$@"
