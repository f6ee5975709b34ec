#!/usr/bin/env bash
# Builds the benchmark (abwperf/, a module of its own that builds the
# repository's packages from this checkout) and runs it:
#
#   bash abwperf/run.sh --workload query-hot --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes stays under .bench_build/ in the
# checkout. Outside a checkout of the repository the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0 GOPROXY=off
go -C "$root/abwperf" build -o "$out/abwperf" .
exec "$out/abwperf" "$@"
