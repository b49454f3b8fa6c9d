#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into .bench_build/ at the root of the checkout (binary, Go build cache
# and Go's own config all stay inside the checkout) and runs it from the
# root with the arguments given. Without the repository around it the
# build fails and nothing is printed.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/hamr-benchmark" .) >&2
cd "$root"
exec "$build/hamr-benchmark" "$@"
