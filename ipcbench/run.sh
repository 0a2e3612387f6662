#!/bin/sh
# Build the benchmark from this checkout and run one workload:
#   bash ipcbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr so the
# last line on stdout is the JSON result.
set -eu
if [ ! -f dune-project ] || [ ! -d lib/runtime ]; then
  echo "ipcbench: run from the repository root (dune-project and lib/ not found)" >&2
  exit 2
fi
dune build --root . ipcbench/main.exe 1>&2
exec ./_build/default/ipcbench/main.exe "$@"
