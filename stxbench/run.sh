#!/usr/bin/env bash
# Builds the benchmark from the repository sources with the release profile
# and runs it from the repository root; arguments go to main.exe:
#   bash stxbench/run.sh --workload sim-core --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "stxbench: no repository sources (dune-project, lib/) around $(pwd)" >&2
  exit 2
fi
build_dir=.bench_build
# The shared dune cache would write outside the checkout.
DUNE_CACHE=disabled dune build --root . --profile release --build-dir "$build_dir" \
  ./stxbench/main.exe 1>&2
exec "$build_dir/default/stxbench/main.exe" "$@"
