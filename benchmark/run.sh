#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments, from the root of the checkout. Everything the build leaves
# behind — the binary, the Go build cache, temporary files — stays in
# .bench_build/ inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

# No network, no toolchain download, no writes under $HOME: the module has
# no dependencies outside this repository and the standard library.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off

# The commit is stamped into the binary when the checkout is a git
# repository the toolchain can read; a checkout that is not builds without.
go build -C "$here" -o "$build/arm2gc-benchmark" . 2>"$build/tmp/build.log" ||
	go build -C "$here" -buildvcs=false -o "$build/arm2gc-benchmark" .
cd "$root"
exec "$build/arm2gc-benchmark" "$@"
