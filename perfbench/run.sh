#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of a checkout.  Build output and scratch files go
# under $CARGO_TARGET_DIR (default .bench_build); the dune cache is off,
# so the build reads and writes nothing else.
set -eu

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a plaid checkout (dune-project and lib/ not found)" >&2
  exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
dune build --root . --cache=disabled --build-dir "$build" ./perfbench/bench.exe >&2
exec "$build/default/perfbench/bench.exe" --work "$build/perfbench-work" --nproc "$(nproc)" "$@"
