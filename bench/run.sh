#!/usr/bin/env bash
# Builds the benchmark and runs it from the checkout root, e.g.
#
#   bash bench/run.sh --workload buffer-wal --seed 1 --seconds 30 --trace 0
#
# The build cache, temporary files, toolchain settings and the runs' own
# files all live under .bench_build/ in the checkout, so nothing is
# written outside it. Outside a full checkout (no ../go.mod next to
# bench/) the build fails and so does the script.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=

(cd "$root/bench" && go build -o "$build/robustmon-bench" .)
cd "$root"
exec "$build/robustmon-bench" "$@"
