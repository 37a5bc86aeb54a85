#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, e.g.
#
#   bash lwbench/run.sh --workload lifecycle --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binary and the toolchain's own state stay under
# .bench_build/ in the checkout; nothing is downloaded.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
LWBENCH_COMMIT=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" describe --always --dirty 2>/dev/null || echo unknown)
export LWBENCH_COMMIT

(cd "$here" && go build -o "$out/lwbench" .)
exec "$out/lwbench" "$@"
