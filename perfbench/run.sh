#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#   bash perfbench/run.sh --workload exact-closed --seed 1 --seconds 10 --trace 0
# Run from the repository root. The Go build cache, module and config
# directories, the binary and the traced run's span files all stay in
# .bench_build, so nothing is written outside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
