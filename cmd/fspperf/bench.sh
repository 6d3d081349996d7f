#!/usr/bin/env bash
# Builds fspperf and runs it with every build and run artefact kept in
# one directory under the checkout: ${CARGO_TARGET_DIR:-.bench_build}.
# The Go build cache, the binaries, the servers' stores and the traces
# all go there, and nothing is written outside it. Run from the root of
# the repository; arguments pass through to fspperf, e.g.
#
#	bash cmd/fspperf/bench.sh --workload reach-cold --seed 1 --seconds 15 --trace 0
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/fspd || ! -d internal ]]; then
	echo "fspperf: run from the root of the fspnet repository" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp" "$out/config"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$out/bin/fspperf" ./cmd/fspperf
exec "$out/bin/fspperf" -work "$out/fspperf" "$@"
