#!/usr/bin/env bash
# Service smoke gate, run as a ctest entry (see tests/CMakeLists.txt).
#
# Starts a mannad daemon on a Unix socket, drives fig12_strong_scaling
# through it with manna-submit from three concurrent clients (each a
# distinct sweep, so per-client fairness counters are observable), and
# requires every client's stdout to be byte-identical to the same
# bench run in-process — the core `server=` contract of
# docs/SERVICE.md. A fourth client is SIGTERM'd mid-run to prove the
# daemon cancels its jobs and stays healthy. A `server=` run's
# bench_json= snapshot must match the in-process one at tolerance 0,
# and a `server=` run with events=/harness_trace=/metrics= armed must
# keep its stdout byte-identical. The daemon's metrics JSONL must
# carry the queue-depth sample field.
#
# Usage: service_smoke.sh <mannad> <manna-submit> <fig12 binary>
set -u

mannad=${1:-}
submit=${2:-}
bench=${3:-}
for bin in "$mannad" "$submit" "$bench"; do
    if [ -z "$bin" ] || [ ! -x "$bin" ]; then
        echo "service_smoke: usage: $0 <mannad> <manna-submit>" \
             "<fig12 binary>" >&2
        exit 1
    fi
done

# The smoke controls its own topology; ambient knobs would skew it.
unset MANNA_SERVER MANNA_POOL MANNA_QUEUE_DEPTH \
      MANNA_CLIENTS MANNA_FAULTS MANNA_FAULT_SEED MANNA_JOBS \
      MANNA_RETRIES MANNA_TIMEOUT MANNA_STATS MANNA_TRACE \
      MANNA_PROGRESS MANNA_PROFILE MANNA_BENCH_JSON MANNA_EVENTS \
      MANNA_HARNESS_TRACE MANNA_METRICS 2>/dev/null

tmpdir=$(mktemp -d)
daemon_pid=
cleanup() {
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null
    rm -rf "$tmpdir"
}
trap cleanup EXIT INT TERM

errors=0
complain() {
    echo "service_smoke: $*" >&2
    errors=$((errors + 1))
}

sock="$tmpdir/mannad.sock"
golden="bench=copy fidelity=fast jobs=1"
# The pinned bench_regress point, for the snapshot and tracing checks.
pinned="bench=copy steps=1 jobs=1"
compare=$(dirname "$0")/bench_compare.py

# --- golden in-process runs (one sweep per client) -----------------
for steps in 4 5 6; do
    # shellcheck disable=SC2086
    "$bench" $golden steps=$steps > "$tmpdir/inproc.$steps.out" \
        2> "$tmpdir/inproc.$steps.err" ||
        { complain "in-process steps=$steps run failed"; exit 1; }
done
# shellcheck disable=SC2086
"$bench" $pinned bench_json="$tmpdir/inproc.json" \
    > "$tmpdir/inproc.pinned.out" 2> "$tmpdir/inproc.pinned.err" ||
    { complain "in-process pinned run failed"; exit 1; }

# --- daemon up -----------------------------------------------------
"$mannad" server="unix:$sock" pool=2 \
    stats="$tmpdir/daemon_stats.json" \
    metrics="$tmpdir/daemon_metrics.jsonl" metrics_interval=0.2 \
    > "$tmpdir/daemon.out" 2> "$tmpdir/daemon.err" &
daemon_pid=$!
for _ in $(seq 50); do
    "$submit" server="unix:$sock" ping >/dev/null 2>&1 && break
    sleep 0.1
done
"$submit" server="unix:$sock" ping > /dev/null 2>&1 ||
    { complain "daemon never became reachable"; exit 1; }

# --- three concurrent clients, distinct sweeps ---------------------
for steps in 4 5 6; do
    # shellcheck disable=SC2086
    "$submit" server="unix:$sock" -- "$bench" $golden steps=$steps \
        > "$tmpdir/client.$steps.out" 2> "$tmpdir/client.$steps.err" &
    eval "client_$steps=\$!"
done
for steps in 4 5 6; do
    eval "wait \$client_$steps" ||
        complain "client steps=$steps exited non-zero:" \
                 "$(tail -3 "$tmpdir/client.$steps.err" | tr '\n' ' ')"
    cmp -s "$tmpdir/inproc.$steps.out" "$tmpdir/client.$steps.out" ||
        complain "client steps=$steps stdout differs from in-process"
done

# Fairness bookkeeping: all three clients appear in per_client, each
# with its full 5-job sweep dispatched, and the pool executed all 15.
"$submit" server="unix:$sock" stats > "$tmpdir/stats1.json" 2>&1 ||
    complain "stats request failed"
python3 - "$tmpdir/stats1.json" <<'EOF' || errors=$((errors + 1))
import json, sys
s = json.load(open(sys.argv[1]))
c = s["counters"]
per_client = s["per_client"]
assert s["schema"] == "manna-daemon-stats-v1", s["schema"]
assert len(per_client) == 3, per_client
assert all(v == 5 for v in per_client.values()), per_client
assert c["completed"] == 15, c
assert c["failed"] == 0 and c["cancelled"] == 0, c
assert sum(s["per_worker"]) == 15, s["per_worker"]
EOF

# --- a client SIGTERM'd mid-run ------------------------------------
"$submit" server="unix:$sock" -- "$bench" fidelity=fast steps=4 \
    > "$tmpdir/victim.out" 2> "$tmpdir/victim.err" &
victim=$!
sleep 1
kill -TERM "$victim" 2>/dev/null
wait "$victim" 2>/dev/null
grep -q "interrupted" "$tmpdir/victim.err" ||
    complain "SIGTERM'd client did not report the interruption"

# The daemon survives the departed client and cancelled its work.
"$submit" server="unix:$sock" ping > /dev/null 2>&1 ||
    complain "daemon unreachable after client SIGTERM"
"$submit" server="unix:$sock" stats > "$tmpdir/stats2.json" 2>&1 ||
    complain "stats request after SIGTERM failed"
python3 - "$tmpdir/stats2.json" <<'EOF' || errors=$((errors + 1))
import json, sys
s = json.load(open(sys.argv[1]))
c = s["counters"]
assert c["cancelled"] >= 1, c    # clean cancellation, not a wedge
assert c["failed"] == 0, c
EOF

# --- server= snapshot: deterministic sections match at tol 0 -------
# shellcheck disable=SC2086
"$bench" $pinned server="unix:$sock" bench_json="$tmpdir/served.json" \
    > "$tmpdir/served.out" 2> "$tmpdir/served.err" ||
    complain "server= pinned run exited non-zero"
cmp -s "$tmpdir/inproc.pinned.out" "$tmpdir/served.out" ||
    complain "server= pinned stdout differs from in-process"
python3 "$compare" "$tmpdir/inproc.json" "$tmpdir/served.json" \
    --tol 0 > "$tmpdir/compare.out" 2>&1 ||
    complain "server= bench_json differs from in-process:" \
             "$(tr '\n' ' ' < "$tmpdir/compare.out")"

# --- tracing a server= run must not perturb its output -------------
# shellcheck disable=SC2086
"$bench" $pinned server="unix:$sock" events="$tmpdir/client.events" \
    harness_trace="$tmpdir/harness_trace.json" \
    metrics="$tmpdir/client_metrics.jsonl" \
    > "$tmpdir/traced.out" 2> "$tmpdir/traced.err" ||
    complain "traced server= run exited non-zero"
cmp -s "$tmpdir/inproc.pinned.out" "$tmpdir/traced.out" ||
    complain "stdout changed when tracing a server= run"
python3 - "$tmpdir/harness_trace.json" <<'EOF' || errors=$((errors + 1))
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["otherData"]["schema"] == "manna-harness-trace-v1", doc
names = {e["name"] for e in doc["traceEvents"]}
assert "sweep.run" in names and "job.run" in names, sorted(names)
EOF
head -1 "$tmpdir/client_metrics.jsonl" | grep -q "manna-metrics-v1" ||
    complain "client metrics series lacks its manna-metrics-v1 header"
[ "$(wc -l < "$tmpdir/client_metrics.jsonl")" -ge 2 ] ||
    complain "client metrics series has no samples"

# --- shutdown + artifact checks ------------------------------------
"$submit" server="unix:$sock" shutdown > /dev/null 2>&1 ||
    complain "shutdown request failed"
wait "$daemon_pid" 2>/dev/null
daemon_pid=

[ -e "$sock" ] && complain "daemon left its socket behind"
grep -q "manna-daemon-stats-v1" "$tmpdir/daemon_stats.json" ||
    complain "daemon stats= snapshot missing or malformed"

# Pool visibility: the metrics JSONL must carry its header and the
# queue-depth field in every sample.
head -1 "$tmpdir/daemon_metrics.jsonl" |
    grep -q "manna-daemon-metrics-v1" ||
    complain "metrics JSONL header missing"
tail -n +2 "$tmpdir/daemon_metrics.jsonl" |
    grep -q '"queue_depth":' ||
    complain "metrics samples lack queue_depth"

if [ "$errors" -gt 0 ]; then
    echo "service_smoke: $errors problem(s)" >&2
    exit 1
fi
echo "service_smoke: OK (3 concurrent clients byte-identical," \
     "SIGTERM'd client cancelled cleanly, server= snapshot and" \
     "traced run match in-process)"
