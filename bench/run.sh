#!/usr/bin/env bash
# Builds the benchmark (a Go module of its own that imports the packages
# of the checkout it sits in) and runs it from the checkout's root. All
# build products and temporary files stay under <root>/.bench_build.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/sparqld" ]; then
	echo "bench/run.sh: $root is not a checkout of the repository under test" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/bin/sparqlbench" .)
cd "$root"
exec "$build/bin/sparqlbench" -root . "$@"
