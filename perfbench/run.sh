#!/usr/bin/env bash
# Builds protoaccd and the benchmark from source into .bench_build/, then
# runs the benchmark with the given arguments. Run it from the repository
# root, for example:
#
#   bash perfbench/run.sh --workload small-rpc --seed 1 --seconds 30 --trace 0
#
# Every Go cache and setting lives under .bench_build/, so a run reads and
# writes nothing outside the checkout. Compiling is not timed.
set -euo pipefail
out=.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOPATH="$PWD/$out/gopath" XDG_CONFIG_HOME="$PWD/$out/config" \
	TMPDIR="$PWD/$out/tmp" GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -o "$out/protoaccd" ./cmd/protoaccd >&2
(cd perfbench && go build -o "../$out/perfbench" .) >&2
exec "$out/perfbench" --daemon "$out/protoaccd" --root . "$@"
