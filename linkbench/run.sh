#!/usr/bin/env bash
# Builds the linkbench binary from this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash linkbench/run.sh --workload link_serve --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary build files, the go command's own state
# and the binary stay inside linkbench/.build, and no module is fetched:
# the benchmark depends only on the repository's own module, which
# go.mod replaces with "../".
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build/cache" "$build/tmp" "$build/config" "$build/mod"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOMODCACHE="$build/mod"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$here" build -o "$build/linkbench" .
cd "$here"
exec "$build/linkbench" "$@"
