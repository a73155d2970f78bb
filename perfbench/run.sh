#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload monitor-wire --seed 1 --seconds 20 --trace 0
#
# Build cache, binary, durable stores and span files stay under
# .bench_build/ in the current directory. The build uses the local
# toolchain only and never fetches anything.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's own files (telemetry counters)
# inside the checkout too; GOENV=off ignores a user's go env settings.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$bench" build -buildvcs=false -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
