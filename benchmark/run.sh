#!/bin/sh
# Builds the benchmark from the sources of this checkout, then runs it
# with the given arguments, e.g.
#   sh benchmark/run.sh --workload serve-sweep --seed 1 --seconds 12 --trace 0
# Build output goes to stderr; the result line is the last line of stdout.
# The build writes only inside the checkout: no dune cache, and the
# compiler's temporary files go to .bench_tmp.
set -e
cd "$(dirname "$0")/.."
mkdir -p .bench_tmp
TMPDIR="$PWD/.bench_tmp" dune build --root . --cache=disabled ./benchmark/rlcbench.exe >&2
exec ./_build/default/benchmark/rlcbench.exe "$@"
