#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload pagerank --seed 1 --seconds 18 --trace 0
#
# Build outputs (binary, Go build cache) and span files go to .bench_build
# in the current directory; nothing is written outside it.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
# The go command keeps its config and telemetry under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
