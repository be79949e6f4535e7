#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash cebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The build, the Go build cache and the toolchain's own state stay under
# .bench_build/ in the checkout, and the toolchain never reaches the
# network: the benchmark's module depends only on the repository's module
# beside it.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
(
	cd "$root/cebench"
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOENV=off \
		go build -o "$out/cebench" .
)
exec "$out/cebench" "$@"
