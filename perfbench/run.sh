#!/usr/bin/env bash
# Build omnid and the benchmark from this checkout, then run one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Everything the run writes stays in the checkout (_build, _perfbench_out).
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -f bin/omnid.ml ]; then
  echo "perfbench: not a checkout of the repository (no dune-project or bin/omnid.ml)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
mkdir -p _perfbench_out
export TMPDIR="$PWD/_perfbench_out"
dune build --root . --display quiet ./bin/omnid.exe ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe \
  --omnid ./_build/default/bin/omnid.exe --out _perfbench_out "$@"
