#!/usr/bin/env bash
# The driver's entry point: builds the benchmark from source and runs it
# with the driver's arguments. Everything the build writes — binary, Go
# build cache, scratch files, the toolchain's own config and telemetry —
# goes under .bench_build/ at the checkout root, so nothing outside the
# checkout is touched. `go build` is a no-op when the binary is current, so
# every run pays it and none can use a stale binary.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
(
	export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
	export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
	export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off
	cd "$root/bench" && go build -o "$out/bench" .
) >&2
cd "$root"
exec "$out/bench" "$@"
