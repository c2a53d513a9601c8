#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Every build artefact and
# cache stays under .bench_build/ at the root of the checkout, so a run
# reads and writes nothing outside it.
#
#   bash perfbench/run.sh --workload sweep|plan-cold|plan-live \
#       --seed N --seconds S --trace 0|1
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOMODCACHE="$build/go-path/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
