#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it sits in and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write goes under $CARGO_TARGET_DIR
# (default .bench_build), relative to the checkout root: the Go build
# cache and config (telemetry), the binary, the durable nodes' data
# directories and the span files of traced runs. The benchmark module
# replaces `salsa` with the checkout root, so without the repository
# around it the build fails and the script exits non-zero before any
# result is printed.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build/work" --spans "$build/spans" "$@"
