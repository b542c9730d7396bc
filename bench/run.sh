#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source with
# every Go cache and temp file kept inside the checkout, then runs it. The
# build needs the repo's go.mod one directory up, so in a directory that holds
# only the benchmark this exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build/tmp"
(
	cd "$here"
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
		XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$build/effbench" .
)
exec "$build/effbench" -out "$here/out" "$@"
