#!/bin/sh
# Builds the benchmark and the braidio-serve daemon from this checkout's
# sources, then runs the benchmark with the given arguments. Run it from
# the repository root:
#
#   sh bench/run.sh --workload sim --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binaries and the journals.
set -eu

out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/work"
# The build needs nothing from the network: braidio has no dependencies.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off

# The bench module replaces braidio with the checkout's root module, so
# this fails (and nothing is run) when the sources are not there.
(cd bench && go build -o "$out/bin/" . braidio/cmd/braidio-serve)

exec "$out/bin/bench" "$@"
