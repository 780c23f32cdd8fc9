#!/bin/sh
# Builds the incdb server and the benchmark from this checkout's sources,
# then runs one benchmark workload:
#   bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 20 --trace 0
# Build output goes to stderr, so the last stdout line is the result JSON.
set -e
cd "$(dirname "$0")/.."
dune build --root . --display quiet bin/main.exe perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
