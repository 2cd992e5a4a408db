#!/usr/bin/env bash
# Builds perfbench, and with it pentiumbench's packages, from this
# checkout and runs it with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload memory --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and every scratch file stay under
# .bench_build/ in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off XDG_CONFIG_HOME="$out/config"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
