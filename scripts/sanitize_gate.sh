#!/usr/bin/env bash
# ASan+UBSan gate for the robustness layer, run as a ctest entry (see
# tests/CMakeLists.txt; SKIP_RETURN_CODE 77).
#
# Configures a separate build tree with -DMANNA_SANITIZE=address,
# undefined, builds the robustness, fidelity, NTM-chip, DNC-chip,
# replay-tape, tile, observability, sweep and service test binaries,
# the fig12 bench and mannad, and runs them under instrumentation:
#   - test_robustness plus the chaos soak (its daemon phases
#     included): the fault-injection error paths (torn lines and
#     frames, failed fsyncs, dropped connections, crashed pool
#     workers, signal interrupts) are exactly the code that normal
#     runs rarely exercise;
#   - test_fidelity, test_sim_chip and test_dnc_chip: both chip
#     drivers' record -> replay -> reset path in both fidelities. The
#     replay tape holds raw pointers into tile memory, which reset()
#     must keep valid by reusing the buffers, for the NTM and the DNC
#     alike; every step of either fidelity computes from it, and
#     test_sim_chip also runs the stale-tape check and the
#     data-independence test at 1, 4 and 16 tiles;
#   - test_replay: the tape passes on synthetic tapes. Block ops
#     compute each row pointer from rows x pitchD, so ASan sees any
#     row a collapsed op would reach past its block;
#   - test_sim_tile and test_observability: the tile's timing paths
#     and the report-time export into the stat registry. Every
#     counter array is indexed by casting an enum, so UBSan's bounds
#     checks see each index directly;
#   - test_sweep and test_service: the one WorkerPool under in-process
#     sweeps and under the daemon, whose tasks hold shared_ptr<Conn>
#     and resubmit themselves after an injected crash, so task
#     lifetimes and the server's stop order are what ASan checks.
# Exits 77 (ctest SKIP) when the toolchain cannot link sanitized
# binaries.
#
# Usage: sanitize_gate.sh [build-dir]   (default: build-sanitize)
set -u
cd "$(dirname "$0")/.."

builddir=${1:-build-sanitize}

# Probe: can the toolchain compile AND link ASan+UBSan? (Containers
# often lack libasan even when the compiler accepts the flag.)
probe=$(mktemp -d)
trap 'rm -rf "$probe"' EXIT INT TERM
echo 'int main(){return 0;}' > "$probe/t.cc"
if ! c++ -fsanitize=address,undefined "$probe/t.cc" -o "$probe/t" \
        > /dev/null 2>&1 || ! "$probe/t"; then
    echo "sanitize_gate: toolchain lacks ASan/UBSan runtime; skipping"
    exit 77
fi

if ! cmake -S . -B "$builddir" -DMANNA_SANITIZE=address,undefined \
        > "$probe/configure.log" 2>&1; then
    echo "sanitize_gate: cmake configure failed:" >&2
    tail -20 "$probe/configure.log" >&2
    exit 1
fi
jobs=$(nproc 2>/dev/null || echo 2)
if ! cmake --build "$builddir" -j"$jobs" \
        --target test_robustness test_fidelity test_sim_chip \
        test_dnc_chip test_replay test_sim_tile test_observability \
        test_sweep test_service fig12_strong_scaling mannad \
        > "$probe/build.log" 2>&1; then
    echo "sanitize_gate: sanitized build failed:" >&2
    tail -20 "$probe/build.log" >&2
    exit 1
fi

# Halt on any UBSan report; ASan aborts by default.
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
errors=0
if ! "$builddir/tests/test_robustness" > "$probe/robust.log" 2>&1; then
    echo "sanitize_gate: sanitized test_robustness failed:" >&2
    tail -30 "$probe/robust.log" >&2
    errors=$((errors + 1))
fi
for t in test_fidelity test_sim_chip test_dnc_chip test_replay \
        test_sim_tile test_observability test_sweep test_service; do
    if ! "$builddir/tests/$t" > "$probe/$t.log" 2>&1; then
        echo "sanitize_gate: sanitized $t failed:" >&2
        tail -30 "$probe/$t.log" >&2
        errors=$((errors + 1))
    fi
done
if ! scripts/chaos_soak.sh "$builddir/bench/fig12_strong_scaling" \
        "$builddir/tools/mannad"; then
    echo "sanitize_gate: sanitized chaos soak failed" >&2
    errors=$((errors + 1))
fi

[ "$errors" -eq 0 ] || exit 1
echo "sanitize_gate: OK (ASan+UBSan: test_robustness + test_fidelity +" \
    "test_sim_chip + test_dnc_chip + test_replay + test_sim_tile +" \
    "test_observability + chaos soak)"
