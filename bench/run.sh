#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout: bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) stays under .bench_build/ in the checkout, so a run reads and
# writes nothing outside it. The script waits for `go build` and then
# becomes the benchmark binary, which is one process.
set -euo pipefail

# Without the module there is nothing to build: fail before the toolchain
# is started at all.
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "bench/run.sh: no go.mod and internal/ here: run from the root of a checkout that holds the program" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/home/.config/go/telemetry" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local

# With telemetry in its default "local" mode the go command starts a
# detached child of itself (the once-a-day counter upload check) that
# outlives `go build`. The mode file is the only switch; GOTELEMETRY is
# read-only in the environment.
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
