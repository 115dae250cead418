#!/usr/bin/env bash
# End-to-end smoke of the tracing layer: run a smoke-sized experiment with
# --trace, require the table output to be byte-identical to an untraced
# run (tracing must be inert), and require the trace file to be valid
# JSON containing the expected spans.
#
# Run from the repo root after a build (`make trace-smoke` does both).
set -euo pipefail

SKETCHLB=${SKETCHLB:-./_build/default/bin/sketchlb.exe}
JSONCHECK=${JSONCHECK:-./_build/default/bin/jsoncheck.exe}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail() { echo "trace-smoke: FAIL: $*" >&2; exit 1; }

"$SKETCHLB" run claim31 --smoke --jobs 2 --trace "$tmp/trace.json" >"$tmp/traced.txt"
"$SKETCHLB" run claim31 --smoke --jobs 2 >"$tmp/plain.txt"

diff "$tmp/plain.txt" "$tmp/traced.txt" >/dev/null \
  || fail "--trace changed the table output"

[ -s "$tmp/trace.json" ] || fail "trace file is empty"

# The exporter writes the whole trace as one JSON line, so the JSON-lines
# validator doubles as a whole-file validator here.
"$JSONCHECK" "$tmp/trace.json" || fail "trace file is not valid JSON"

# The spans the claim31 pipeline must have emitted: the experiment span,
# the graph-build phases, and the referee verification.
for span in '"exp.claim31"' '"graph.freeze"' '"graph.sort"' '"graph.dedup"' '"graph.csr-fill"' \
  '"claims.check"' '"parallel.chunk"'; do
  grep -q "$span" "$tmp/trace.json" || fail "trace has no $span span"
done
grep -q '"traceEvents"' "$tmp/trace.json" || fail "not a Chrome trace_event file"

events=$(grep -o '"ph"' "$tmp/trace.json" | wc -l)
echo "trace-smoke: OK ($events events, output byte-identical with tracing on)"
