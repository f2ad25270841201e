#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload queens --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh steady -n 10 -seconds 20
#
# Everything the build writes (the binary, Go's build cache, temporary
# files) stays under .bench_build/ at the root of the checkout. The
# build needs the repository around perfbench/; without it the script
# fails before printing any result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/cache" "$out/tmp" "$out/config" "$out/gopath"

export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
