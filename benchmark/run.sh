#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from the
# repository root:
#
#   bash benchmark/run.sh --workload social --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, data
# directories, span dumps) goes under $CARGO_TARGET_DIR, default
# .bench_build, relative to the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

# Keep the toolchain's caches and config inside the build directory and
# never reach for another toolchain or module.
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=
export GOPROXY=off

(cd "$here" && go build -trimpath -o "$out/bccbench" .)
exec "$out/bccbench" --work-dir "$out" "$@"
