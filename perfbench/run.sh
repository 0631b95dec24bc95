#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload report-lift --seed 1 --seconds 18 --trace 0
#
# Run from the repository root. Every build artefact (binary, Go build
# cache, temporary files) stays under .bench_build/ in the current
# directory; nothing is fetched from the network.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
# The go command's telemetry counters live under the user config dir.
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
