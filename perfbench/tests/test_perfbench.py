#!/usr/bin/env python3
"""Tests of the benchmark driver itself.

    python3 perfbench/tests/test_perfbench.py

Run from the repository root. Builds the driver the way run.py does,
then checks that bad input fails loudly, that every metric named in
BENCHMARK.json prints with its unit, and that a tampered counter
reference is caught as failed jobs.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE = os.path.join(BENCH_DIR, "reference.tsv")
sys.path.insert(0, BENCH_DIR)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the build step of the benchmark entry point)

DRIVER = os.path.join(run.build(), "perfbench")


def drive(*args, reference=REFERENCE):
    return subprocess.run([DRIVER, *args, "--reference", reference],
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=120)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class LoudFailures(unittest.TestCase):
    def test_unknown_workload_lists_choices(self):
        r = drive("--workload", "nope", "--seed", "1")
        self.assertNotEqual(r.returncode, 0)
        for name in run.WORKLOADS:
            self.assertIn(name, r.stderr)
        self.assertEqual(r.stdout, "")

    def test_bad_seed(self):
        for seed in ("-1", "x", "1.5", ""):
            r = drive("--workload", "sweep_small", "--seed", seed)
            self.assertNotEqual(r.returncode, 0, seed)
            self.assertIn("seed", r.stderr)

    def test_missing_reference(self):
        r = drive("--workload", "sweep_small", "--seed", "1",
                  reference=os.path.join(BENCH_DIR, "no-such-file.tsv"))
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("no-such-file.tsv", r.stderr)

    def test_reference_without_the_workloads_jobs(self):
        with tempfile.NamedTemporaryFile("w", suffix=".tsv") as f:
            f.write("copy/t16/s3/cycle 1 1 0\n")
            f.flush()
            r = drive("--workload", "sweep_small", "--seed", "1",
                      reference=f.name)
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("copy/t1/s6/fast", r.stderr)
        self.assertIn("copy/t16/s3/cycle", r.stderr)


class Metrics(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, trace, section):
        r = drive("--workload", "sweep_small", "--seed", "5",
                  "--seconds", "1", "--trace", str(trace))
        self.assertEqual(r.returncode, 0, r.stderr)
        out = last_json(r.stdout)
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        want = {m["name"]: m["unit"] for m in self.spec[section]}
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        self.assertEqual(got, want)
        for name in want:  # the text report names each metric too
            self.assertRegex(r.stdout, rf"(?m)^{name}\s")
        return out

    def test_end_to_end_metrics_print_with_units(self):
        out = self.check(0, "end_to_end")
        for name, metric in out["metrics"].items():
            self.assertGreater(metric["value"], 0, name)

    def test_per_layer_metrics_print_with_units(self):
        self.check(1, "per_layer")


class OutputCheck(unittest.TestCase):
    def test_tampered_reference_fails_jobs(self):
        with open(REFERENCE) as f:
            lines = f.read().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("copy/t4/s6/fast "):
                key, cycles, rest = line.split(" ", 2)
                lines[i] = f"{key} {int(cycles) + 1} {rest}"
        with tempfile.NamedTemporaryFile("w", suffix=".tsv") as f:
            f.write("\n".join(lines) + "\n")
            f.flush()
            r = drive("--workload", "sweep_small", "--seed", "1",
                      "--seconds", "1", reference=f.name)
        self.assertEqual(r.returncode, 0, r.stderr)
        out = last_json(r.stdout)
        self.assertFalse(out["correct"])
        self.assertGreater(out["failed"], 0)
        self.assertIn("copy/t4/s6/fast counters differ", r.stderr)
        frac = float(r.stdout.split("# failed_frac ")[1].split()[0])
        self.assertGreater(frac, 0.0)


if __name__ == "__main__":
    unittest.main()
