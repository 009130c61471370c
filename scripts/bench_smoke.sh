#!/usr/bin/env bash
# Smoke-test the sweep-parallel bench harness: run a tiny strong-
# scaling sweep twice (serial and with 2 workers) under a wall-clock
# budget and require byte-identical tables, then require
# fidelity=fast to match cycle mode (tables and stats.json) and an
# unknown bench= name to fail loudly.
#
# Usage: bench_smoke.sh <path-to-fig12_strong_scaling> [budget-seconds]
set -euo pipefail

BIN=${1:?usage: bench_smoke.sh <fig12_strong_scaling binary> [budget]}
BUDGET=${2:-120}

OUTDIR=$(mktemp -d)
trap 'rm -rf "$OUTDIR"' EXIT INT TERM

run_budgeted() {
    # timeout(1) when available; otherwise rely on the ctest TIMEOUT.
    if command -v timeout >/dev/null 2>&1; then
        timeout "$BUDGET" "$@"
    else
        "$@"
    fi
}

run_budgeted "$BIN" bench=recall steps=1 jobs=1 > "$OUTDIR/serial.txt"
run_budgeted "$BIN" bench=recall steps=1 jobs=2 > "$OUTDIR/par.txt"

if ! cmp -s "$OUTDIR/serial.txt" "$OUTDIR/par.txt"; then
    echo "FAIL: jobs=1 and jobs=2 outputs differ" >&2
    diff "$OUTDIR/serial.txt" "$OUTDIR/par.txt" >&2 || true
    exit 1
fi

echo "OK: parallel sweep output byte-identical to serial"

# fidelity=fast must render the same table as cycle mode: tensor
# results are bit-identical by contract and per-step cycle costs are
# steady, so even the cycle columns agree. steps=4 so the run actually
# leaves calibration (2 steps) and executes from the replay tape.
run_budgeted "$BIN" bench=recall steps=4 jobs=1 fidelity=cycle \
    stats="$OUTDIR/cycle.json" > "$OUTDIR/cycle.txt"
run_budgeted "$BIN" bench=recall steps=4 jobs=1 fidelity=fast \
    stats="$OUTDIR/fast.json" > "$OUTDIR/fast.txt"

if ! cmp -s "$OUTDIR/cycle.txt" "$OUTDIR/fast.txt"; then
    echo "FAIL: fidelity=fast and fidelity=cycle outputs differ" >&2
    diff "$OUTDIR/cycle.txt" "$OUTDIR/fast.txt" >&2 || true
    exit 1
fi

echo "OK: fidelity=fast output byte-identical to cycle mode"

# The stats must agree too: the same keys in every section, and every
# value equal except energies (*_pj counters, which sum per-step
# floating-point charges in a different order: relative 1e-12) and the
# fidelity.* markers. The throughput section is wall-clock time.
python3 - "$OUTDIR/cycle.json" "$OUTDIR/fast.json" <<'EOF'
import json
import sys

def flat(path):
    doc = json.load(open(path))
    doc.pop("throughput")
    out = {}
    def walk(prefix, v):
        if isinstance(v, dict):
            for k, sub in v.items():
                walk(f"{prefix}.{k}" if prefix else k, sub)
        else:
            out[prefix] = v
    walk("", doc)
    return out

cyc, fast = flat(sys.argv[1]), flat(sys.argv[2])
if set(cyc) != set(fast):
    sys.exit("FAIL: stats key sets differ: cycle-only "
             f"{sorted(set(cyc) - set(fast))[:5]}, fast-only "
             f"{sorted(set(fast) - set(cyc))[:5]}")
bad = []
for key, c in sorted(cyc.items()):
    f = fast[key]
    if key.startswith("counters.fidelity."):
        continue
    if key.startswith("counters.") and key.endswith("_pj"):
        if abs(f - c) > 1e-12 * abs(c):
            bad.append(f"{key}: cycle {c!r} fast {f!r}")
    elif f != c:
        bad.append(f"{key}: cycle {c!r} fast {f!r}")
if bad:
    sys.exit("FAIL: fidelity=fast stats differ from cycle mode:\n  " +
             "\n  ".join(bad[:20]))
print(f"OK: fidelity=fast stats match cycle mode ({len(cyc)} keys)")
EOF

# An unknown bench= name must fail loudly (nonzero exit, the valid
# names on stderr) instead of printing an empty table.
if run_budgeted "$BIN" bench=nosuch steps=1 jobs=1 \
        > "$OUTDIR/unknown.txt" 2> "$OUTDIR/unknown.err"; then
    echo "FAIL: bench=nosuch exited 0" >&2
    exit 1
fi
if ! grep -q "unknown benchmark 'nosuch'.*recall" "$OUTDIR/unknown.err"; then
    echo "FAIL: bench=nosuch did not list the valid names:" >&2
    cat "$OUTDIR/unknown.err" >&2
    exit 1
fi

echo "OK: unknown bench= name rejected with the valid names"
