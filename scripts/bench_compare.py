#!/usr/bin/env python3
"""Diff a freshly generated BENCH_*.json snapshot against a committed
baseline and fail on cycle (or any counter) regressions.

Usage:
    scripts/bench_compare.py BASELINE.json CANDIDATE.json [--tol REL]

Both files must be "manna-bench-v1" documents (written by a bench
binary's bench_json= knob). The deterministic sections — "name",
"jobs", and every counter under "counters" — must match within the
relative tolerance; the "wall" section is wall-clock and is ignored.
The key sets must match exactly in both directions, so a renamed or
dropped counter fails the comparison rather than slipping past it.

Tolerance: --tol, else the MANNA_BENCH_TOL environment variable, else
1e-9 (counters are deterministic; the default only forgives the
last-bit float formatting). Exit status: 0 on match, 1 on any
difference, 2 on malformed input.
"""

import json
import os
import sys


def fail(msg):
    print("bench_compare: %s" % msg, file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))
    if doc.get("schema") != "manna-bench-v1":
        fail("%s: schema %r is not manna-bench-v1"
             % (path, doc.get("schema")))
    for section in ("name", "jobs", "counters"):
        if section not in doc:
            fail("%s: missing section %r" % (path, section))
    return doc


def rel_diff(a, b):
    denom = max(abs(a), abs(b))
    return abs(a - b) / denom if denom > 0.0 else 0.0


def main():
    args = [a for a in sys.argv[1:]]
    tol = float(os.environ.get("MANNA_BENCH_TOL", "1e-9"))
    if "--tol" in args:
        i = args.index("--tol")
        try:
            tol = float(args[i + 1])
        except (IndexError, ValueError):
            fail("--tol needs a numeric argument")
        del args[i:i + 2]
    if len(args) != 2:
        fail("usage: bench_compare.py BASELINE.json CANDIDATE.json "
             "[--tol REL]")
    base = load(args[0])
    cand = load(args[1])

    problems = []
    if base["name"] != cand["name"]:
        problems.append("name: baseline %r != candidate %r"
                        % (base["name"], cand["name"]))
    for key in sorted(set(base["jobs"]) | set(cand["jobs"])):
        b, c = base["jobs"].get(key), cand["jobs"].get(key)
        if b != c:
            problems.append("jobs.%s: baseline %r != candidate %r"
                            % (key, b, c))

    bc, cc = base["counters"], cand["counters"]
    for key in sorted(set(bc) - set(cc)):
        problems.append("counter %s: missing from candidate" % key)
    for key in sorted(set(cc) - set(bc)):
        problems.append("counter %s: missing from baseline" % key)
    for key in sorted(set(bc) & set(cc)):
        d = rel_diff(float(bc[key]), float(cc[key]))
        if d > tol:
            problems.append(
                "counter %s: baseline %.17g != candidate %.17g "
                "(rel diff %.3g > tol %.3g)"
                % (key, float(bc[key]), float(cc[key]), d, tol))

    if problems:
        print("bench_compare: %d difference(s) between %s and %s:"
              % (len(problems), args[0], args[1]))
        for p in problems:
            print("  " + p)
        print("If the change is intentional, regenerate the baseline "
              "with scripts/bench_baseline.sh and commit it.")
        sys.exit(1)
    print("bench_compare: %s matches %s (%d counters, tol %g)"
          % (args[1], args[0], len(bc), tol))


if __name__ == "__main__":
    main()
