#!/usr/bin/env bash
# Build the end-to-end benchmark from source, then measure one workload:
#
#   bash bench/e2e/bench.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The last line of standard output is the result object (see
# bench/e2e/README.md).  Exits non-zero without a result if the build or
# the run fails.
set -euo pipefail
cd "$(dirname "$0")/../.."
# build inside this checkout only: no shared dune cache
DUNE_CACHE=disabled dune build --root . bench/e2e/main.exe 1>&2
exec ./_build/default/bench/e2e/main.exe measure "$@"
