#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh -workload fleet-churn -seed 1 -seconds 20 -trace 0
#
# Run it from the repository root. The binary, the Go build cache and
# the traced pass's files stay under .bench_build/ in the current
# directory. Outside a full checkout (no ../go.mod for the replace
# directive) the build fails and the script exits non-zero.
set -euo pipefail

out=$(pwd)/.bench_build
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off GOSUMDB=off

go -C bench build -o "$out/medusa-bench" .
exec "$out/medusa-bench" "$@"
