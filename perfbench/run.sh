#!/bin/sh
# Build the benchmark and the repro binary from source, then run one
# workload:  sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# (see BENCHMARK.json).  Build output goes to stderr; the result is the last
# line of stdout.
set -u
cd "$(dirname "$0")/.." || exit 2
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bin/repro.ml ]; then
  echo "perfbench: not a full checkout of the repository (dune-project, lib/ and bin/ are needed)" >&2
  exit 2
fi
dune build --root . ./perfbench/bench.exe ./bin/repro.exe 1>&2 || exit 2
exec ./_build/default/perfbench/bench.exe "$@"
