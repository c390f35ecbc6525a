#!/usr/bin/env bash
# Builds xpdld and the benchmark from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload query|edit|sweep --seed N --seconds S --trace 0|1
#
# Build outputs, the Go build cache and each run's private copy of
# models/ live under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/xpdld || ! -d models || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/xpdld and models/ are missing)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/xpdld" ./cmd/xpdld
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -xpdld "$out/xpdld" "$@"
