#!/bin/sh
# Builds the benchmark and mecd from this checkout's sources, then runs the
# benchmark once from the repository root; arguments pass through:
#
#	sh e2ebench/run.sh --workload batch-contended --seed 1 --seconds 25 --trace 0
#
# Everything building and running leaves behind, the Go build cache
# included, stays under .bench_build in the checkout.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d cmd/mecd ]; then
	echo "e2ebench: $(pwd) is not a dsmec checkout: the benchmark builds cmd/mecd from it" >&2
	exit 2
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go build -o "$out/bin/mecd" ./cmd/mecd
(cd e2ebench && go build -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" "$@"
