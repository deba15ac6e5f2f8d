#!/usr/bin/env bash
# Builds ccbench from the checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash cmd/ccbench/run.sh --workload execute --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain writes (build cache, temporaries, telemetry)
# and the binary itself go under .bench_build/ at the root, so a run reads
# and writes nothing outside the checkout. Without the repository's own
# go.mod two levels up the build fails and so does this script.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	GOFLAGS="-mod=readonly -buildvcs=false"

(cd "$root/cmd/ccbench" && go build -o "$out/ccbench" .)
exec "$out/ccbench" "$@"
