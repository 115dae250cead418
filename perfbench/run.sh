#!/usr/bin/env bash
# Build the release sketchd/sketchproxy binaries and the benchmark from
# source, then run one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the result object is the last line of
# stdout. Everything the run writes stays under the build directory.
set -euo pipefail
cd "$(dirname "$0")/.."
build="${CARGO_TARGET_DIR:-.bench_build}"
# No shared build cache: a run reads and writes only inside the tree.
export DUNE_CACHE=disabled
# The serve-hot idle herd holds ~2000 descriptors in this process and in
# sketchd.
ulimit -n "$(ulimit -Hn)" 2>/dev/null || true
dune build --root . --build-dir "$build" --profile release \
  ./bin/sketchd.exe ./bin/sketchproxy.exe ./perfbench/bench.exe 1>&2
mkdir -p "$build/perfbench-run"
exec "$build/default/perfbench/bench.exe" --root . --bin-dir "$build/default/bin" \
  --run-dir "$build/perfbench-run" --build-profile release "$@"
