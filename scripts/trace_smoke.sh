#!/usr/bin/env bash
# End-to-end smoke of the tracing layer: run a smoke-sized experiment with
# --trace, require the table output to be byte-identical to an untraced
# run (tracing must be inert), and require the trace file to be valid
# JSON containing the expected spans. Then the daemon side: `sketchd
# --trace` serving a ping must record the request path's decode, rpc,
# encode and request spans.
#
# Run from the repo root after a build (`make trace-smoke` does both).
set -euo pipefail

SKETCHLB=${SKETCHLB:-./_build/default/bin/sketchlb.exe}
SKETCHD=${SKETCHD:-./_build/default/bin/sketchd.exe}
SKETCHCTL=${SKETCHCTL:-./_build/default/bin/sketchctl.exe}
JSONCHECK=${JSONCHECK:-./_build/default/bin/jsoncheck.exe}

tmp=$(mktemp -d)
daemon_pid=

cleanup() {
  if [ -n "$daemon_pid" ] && kill -0 "$daemon_pid" 2>/dev/null; then
    kill -9 "$daemon_pid" 2>/dev/null || true
  fi
  rm -rf "$tmp"
}
trap cleanup EXIT

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

# The daemon's request path: one ping, then a shutdown RPC; the trace is
# written once the drain completes and the process exits.
"$SKETCHD" --trace "$tmp/daemon.json" --port-file "$tmp/port" -q >"$tmp/daemon.out" &
daemon_pid=$!
for _ in $(seq 1 100); do
  [ -s "$tmp/port" ] && break
  kill -0 "$daemon_pid" 2>/dev/null || fail "daemon died on startup: $(cat "$tmp/daemon.out")"
  sleep 0.1
done
[ -s "$tmp/port" ] || fail "daemon never wrote its port file"
port=$(cat "$tmp/port")
"$SKETCHCTL" ping -p "$port" | grep -q '"ok":true' || fail "traced daemon did not answer ping"
"$SKETCHCTL" shutdown -p "$port" >/dev/null
for _ in $(seq 1 100); do
  kill -0 "$daemon_pid" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$daemon_pid" 2>/dev/null && fail "daemon did not exit after shutdown"
wait "$daemon_pid" || fail "daemon exited non-zero"
daemon_pid=

"$JSONCHECK" "$tmp/daemon.json" || fail "daemon trace file is not valid JSON"
for span in '"wire.decode"' '"rpc.ping"' '"wire.encode"' '"daemon.request"'; do
  grep -q "$span" "$tmp/daemon.json" || fail "daemon trace has no $span span"
done

echo "trace-smoke: OK ($events events, output byte-identical with tracing on; daemon request path spanned)"
