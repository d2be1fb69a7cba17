#!/usr/bin/env bash
# Builds spmmserve, spmmrouter and the benchmark from source, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 10 --steady 10
#
# Everything it writes (binaries, Go build cache, scratch data) goes under
# .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/spmmserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/spmmserve and perfbench/ must be present)" >&2
	exit 2
fi
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/bin/" ./cmd/spmmserve ./cmd/spmmrouter
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -out "$out/out" "$@"
