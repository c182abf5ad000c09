#!/usr/bin/env bash
# Builds cmd/assayd and the benchmark from the checkout's sources, then
# runs one benchmark pass. Run it from the repository root:
#
#	bash assaybench/run.sh --workload scan-stream --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, including the Go build cache.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/assayd" || ! -f "$root/assaybench/go.mod" ]]; then
	echo "assaybench: run from the repository root (go.mod, cmd/assayd and assaybench/ not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go build -o "$out/assayd" ./cmd/assayd
(cd "$root/assaybench" && go build -o "$out/assaybench" .)
exec "$out/assaybench" -root "$root" -assayd "$out/assayd" "$@"
