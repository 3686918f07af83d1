#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the
# build and the run write (Go build cache, temp files, traces) under
# .bench_build in the directory it is started from, the repository root:
#
#   bash bench/run.sh -workload serve-mix -seed 3
#
# Arguments pass through to the benchmark (see bench/main.go).
set -eu
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
