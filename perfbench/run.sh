#!/usr/bin/env bash
# Builds the benchmark and the dpmsim daemon from this checkout, then runs
# one measurement:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root.  The process (and the daemon it starts)
# is pinned to one CPU when taskset is available, so the speed probe and
# the measured work always share a core.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: not a full checkout (dune-project, lib/ or bin/ missing)" >&2
  exit 2
fi
dune build --root . ./perfbench/main.exe ./bin/dpmsim.exe >&2
bench=./_build/default/perfbench/main.exe
if command -v taskset >/dev/null 2>&1; then
  cpu=$(awk '/^Cpus_allowed_list/ { split($2, a, /[-,]/); print a[1] }' /proc/self/status)
  if taskset -c "${cpu:-0}" true 2>/dev/null; then
    exec taskset -c "${cpu:-0}" "$bench" "$@"
  fi
fi
exec "$bench" "$@"
