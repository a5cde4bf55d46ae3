#!/usr/bin/env bash
# Builds perfbench from this checkout's source and runs it with the given
# arguments, e.g.
#   bash perfbench/run.sh --workload rpc-small --seed 1 --seconds 20 --trace 0
# Run from the repository root. The Go build cache and the binary stay
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go -C perfbench build -buildvcs=false -o "$out/perfbench" . >&2
commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" --commit "$commit" "$@"
