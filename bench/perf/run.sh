#!/usr/bin/env bash
# Build the benchmark and the bor binary from source, then run it with
# the given arguments (see perf.ml or README.md). Run from the
# repository root; build output goes to stderr so the last line of
# stdout stays the benchmark's JSON result. Dune's shared cache is off
# so that building writes only inside the repository.
set -euo pipefail
DUNE_CACHE=disabled dune build --root . ./bench/perf/perf.exe ./bin/bor.exe 1>&2
exec ./_build/default/bench/perf/perf.exe --bor ./_build/default/bin/bor.exe "$@"
