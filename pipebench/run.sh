#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash pipebench/run.sh --workload dashboard --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact (Go build cache, temp files, the binary,
# trace files) stays under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$here" build -o "$out/pipebench" .
exec "$out/pipebench" "$@"
