#!/usr/bin/env bash
# Chaos soak gate, run as a ctest entry (see tests/CMakeLists.txt).
#
# Runs the golden fig12_strong_scaling point (bench=copy steps=1
# jobs=1) once cleanly, then re-runs it under a rotating schedule of
# injected faults — a daemon dropping a fresh connection, a daemon
# tearing a result frame, a daemon pool worker crashing, fsync
# failures, torn journal appends, bit-corrupted journal reads, and a
# full disk (see docs/ROBUSTNESS.md for the site catalog). Every
# faulted run must exit 0, produce byte-identical stdout to the clean
# run, and log its recovery path; the journal-corruption phases must
# also surface their damage in the stats.json
# `journal.corrupt_records` field.
#
# Usage: chaos_soak.sh <fig12_strong_scaling binary> <mannad binary>
#
# The daemon phases run the golden point through `server=` against a
# mannad armed with the phase's fault (docs/SERVICE.md).
set -u

bin=${1:-}
mannad=${2:-}
if [ -z "$bin" ] || [ ! -x "$bin" ] || [ -z "$mannad" ] ||
        [ ! -x "$mannad" ]; then
    echo "chaos_soak: usage: $0 <fig12_strong_scaling binary>" \
         "<mannad binary>" >&2
    exit 1
fi

# The soak controls its own fault schedule and process topology;
# ambient knobs from the environment would skew it.
unset MANNA_FAULTS MANNA_FAULT_SEED MANNA_JOBS MANNA_RETRIES \
      MANNA_TIMEOUT MANNA_STATS MANNA_TRACE MANNA_PROGRESS \
      MANNA_PROFILE MANNA_BENCH_JSON MANNA_SERVER MANNA_POOL \
      MANNA_QUEUE_DEPTH MANNA_CLIENTS 2>/dev/null

tmpdir=$(mktemp -d)
daemon_pid=
cleanup() {
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null
    rm -rf "$tmpdir"
}
trap cleanup EXIT INT TERM

golden="bench=copy steps=1 jobs=1 fault_seed=7"
errors=0
complain() {
    echo "chaos_soak: $*" >&2
    errors=$((errors + 1))
}

# run <phase> <expected-exit> <arg>... — runs the bench, captures
# stdout/stderr under $tmpdir/<phase>.{out,err}, checks the exit code.
run() {
    local phase=$1 want=$2
    shift 2
    # shellcheck disable=SC2086 — $golden is intentionally word-split
    "$bin" $golden "$@" > "$tmpdir/$phase.out" 2> "$tmpdir/$phase.err"
    local got=$?
    if [ "$got" -ne "$want" ]; then
        complain "phase '$phase' exited $got (want $want):" \
                 "$(tail -3 "$tmpdir/$phase.err" | tr '\n' ' ')"
        return 1
    fi
}

# identical <phase> — the soak's core assertion: a faulted run's
# report must be byte-identical to the clean run's.
identical() {
    cmp -s "$tmpdir/clean.out" "$tmpdir/$1.out" ||
        complain "phase '$1' stdout differs from the clean run"
}

# logged <phase> <pattern> — the recovery path must announce itself.
logged() {
    grep -q "$2" "$tmpdir/$1.err" ||
        complain "phase '$1' stderr lacks '$2'"
}

# --- phase 0: clean golden run -------------------------------------
run clean 0 || { echo "chaos_soak: no golden run; aborting" >&2; exit 1; }

# daemon <phase> <fault-spec> — start mannad on a fresh socket armed
# with one fault; sets $sock. Readiness is the socket file appearing,
# not a probe connection, which would consume the first accept.
daemon() {
    sock="$tmpdir/$1.sock"
    "$mannad" server="unix:$sock" pool=2 faults="$2" fault_seed=7 \
        > "$tmpdir/$1.daemon.out" 2> "$tmpdir/$1.daemon.err" &
    daemon_pid=$!
    for _ in $(seq 50); do
        [ -S "$sock" ] && return 0
        sleep 0.1
    done
    complain "mannad never came up for phase '$1'"
    return 1
}

# stop_daemon <phase> — SIGTERM is a graceful shutdown: the daemon
# must exit 0 (under the sanitizer gate, a leak report fails it too).
stop_daemon() {
    kill "$daemon_pid" 2>/dev/null
    wait "$daemon_pid" 2>/dev/null
    local got=$?
    daemon_pid=
    [ "$got" -eq 0 ] ||
        complain "phase '$1' daemon exited $got on SIGTERM:" \
                 "$(tail -3 "$tmpdir/$1.daemon.err" | tr '\n' ' ')"
}

# daemon_logged <phase> <pattern> — like logged, for the daemon side.
daemon_logged() {
    grep -q "$2" "$tmpdir/$1.daemon.err" ||
        complain "phase '$1' daemon stderr lacks '$2'"
}

# --- phase 1: the daemon drops the first accepted connection -------
if daemon accept server.accept:once@1; then
    run accept 0 server="unix:$sock" &&
        { identical accept
          logged accept "dropped the connection during the handshake"
          daemon_logged accept "dropping freshly accepted connection"; }
    stop_daemon accept
fi

# --- phase 2: the daemon tears a result frame mid-write ------------
if daemon torn_frame server.frame.torn:once@1; then
    run torn_frame 0 server="unix:$sock" &&
        { identical torn_frame
          logged torn_frame "sent a torn frame; resubmitting"; }
    stop_daemon torn_frame
fi

# --- phase 3: a daemon pool worker crashes at task pickup ----------
if daemon pool_crash pool.worker.crash:once@1; then
    run pool_crash 0 server="unix:$sock" &&
        { identical pool_crash
          daemon_logged pool_crash "crashed (injected); restarting"; }
    stop_daemon pool_crash
fi

# --- phase 4: journal fsync fails mid-sweep ------------------------
run fsync 0 journal="$tmpdir/fsync.journal" \
    faults=journal.fsync:once@1 &&
    { identical fsync; logged fsync "checkpointing disabled"; }

# --- phase 5: torn journal append, then resume past it -------------
run torn 0 journal="$tmpdir/torn.journal" \
    faults=journal.append.torn:once@1 &&
    identical torn
if run torn_resume 0 resume="$tmpdir/torn.journal" \
        stats="$tmpdir/torn.stats.json"; then
    identical torn_resume
    grep -q '"journal.corrupt_records": 1' "$tmpdir/torn.stats.json" ||
        complain "torn resume did not count 1 corrupt record"
fi

# --- phase 6: bit corruption on journal read -----------------------
run seedj 0 journal="$tmpdir/read.journal" && identical seedj
if run read_corrupt 0 resume="$tmpdir/read.journal" \
        faults=journal.read.corrupt:once@1 \
        stats="$tmpdir/read.stats.json"; then
    identical read_corrupt
    grep -q '"journal.corrupt_records": 1' "$tmpdir/read.stats.json" ||
        complain "corrupt-read resume did not count 1 corrupt record"
fi

# --- phase 7: the disk fills up mid-sweep --------------------------
run enospc 0 journal="$tmpdir/enospc.journal" \
    faults=journal.append.enospc:once@1 &&
    { identical enospc; logged enospc "checkpointing disabled"; }

if [ "$errors" -gt 0 ]; then
    echo "chaos_soak: $errors problem(s)" >&2
    exit 1
fi
echo "chaos_soak: OK (7 fault phases, byte-identical reports)"
