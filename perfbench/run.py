#!/usr/bin/env python3
"""Build and run the Manna host-time benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
simulator libraries and the driver under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later runs rebuild only what changed.
Build output goes to stderr; the driver's report goes to stdout, ending
with one JSON line. Traced runs also write a Chrome trace of their spans
next to the build.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("tab2_dnc_fast", "sweep_small")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# A run of at most 120 s finishes well within this; a hung one is cut.
DRIVER_TIMEOUT_S = 170


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error(f"argument --seed: must be >= 0, got {args.seed}")
    if not 1 <= args.seconds <= 120:
        p.error(f"argument --seconds: must be 1..120, got {args.seconds}")
    return args


def build():
    """Configure and build the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(target_dir), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", build_dir, "-j", jobs,
              "--target", "perfbench"]]
    # Once configured, the build step re-runs CMake by itself when a
    # CMakeLists.txt changes.
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", BENCH_DIR, "-B", build_dir])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return build_dir


def main():
    args = parse_args()
    build_dir = build()
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", os.path.join(BENCH_DIR, "reference.tsv")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, f"trace-{args.workload}-{args.seed}.json")]
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: driver exceeded {DRIVER_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
