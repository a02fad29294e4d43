#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files, the binary and the trace spans
# all stay under .bench_build/ (or $CARGO_TARGET_DIR when set), so the
# benchmark writes nothing outside the checkout. Build output goes to
# stderr; stdout carries only the benchmark's report, whose last line
# is the JSON result.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" --root . --spans "$out/spans" "$@"
