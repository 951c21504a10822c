#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Everything
# written — Go's build cache, temporary files, the binary, the WAL, trace
# files — stays under .bench_build/ in the checkout. Arguments go to the
# benchmark: --workload <name> --seed <n> --seconds <s> --trace <0|1>.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The go command gets its cache, temp, module cache and config directories
# here, never the user's: nothing is written outside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOENV=off XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd "$here" && go build -buildvcs=false -o "$out/benchmark" .)
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$out/benchmark" -workdir "$out" -commit "$commit" "$@"
