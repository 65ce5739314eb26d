#!/usr/bin/env bash
# Builds the lodim benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash lodimbench/run.sh --workload map-search --seed 1 --seconds 50 --trace 0
#   bash lodimbench/run.sh compare base.jsonl new.jsonl
#
# Every build artefact and the Go caches stay under .bench_build in
# the current directory (CARGO_TARGET_DIR is honoured when it names
# another directory inside it).
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOWORK=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off

go=go
if ! command -v go >/dev/null 2>&1; then
	go=/usr/local/go/bin/go
fi

(cd "$root/lodimbench" && "$go" build -trimpath -o "$build/lodimbench" .)
exec "$build/lodimbench" "$@"
