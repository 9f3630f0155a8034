#!/usr/bin/env python3
"""Tests for the repository benchmark itself.

    python3 perfbench/test_perfbench.py

Every case drives perfbench/run.py as a user would, at a tiny size
(--scale shrinks every request count), so the suite takes well under a
minute once the benchmark is built.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--scale", "0.05", "--seconds", "1"]


def bench(workload, *extra, trace=0, seed=7, run=RUN):
    """Runs the benchmark; returns (exit code, stdout lines, parsed result)."""
    proc = subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def digest_of(lines):
    return next(line.split()[1] for line in lines if line.startswith("digest "))


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # Every workload at a tiny size, bare (--trace 0) and decorated (1).
        cls.runs = {(w, t): bench(w, *TINY, trace=t) for w in WORKLOADS for t in (0, 1)}

    def test_decorated_stack_matches_bare_stack(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, bare_lines, bare = self.runs[(workload, 0)]
                self.assertEqual(code, 0, bare_lines)
                code, traced_lines, traced = self.runs[(workload, 1)]
                self.assertEqual(code, 0, traced_lines)
                self.assertTrue(bare["correct"] and traced["correct"])
                self.assertEqual(bare["failed"], 0)
                self.assertEqual(digest_of(bare_lines), digest_of(traced_lines))

    def test_metric_names_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, lines, result = self.runs[(workload, trace)]
                    self.assertEqual(code, 0, lines)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, expected)

    def test_sptf_check_passes_on_sptf_and_fails_on_perturbed_ties(self):
        code, lines, result = bench("sptf_random", "--scale", "0.25", "--seconds", "1")
        self.assertEqual(code, 0, lines)
        self.assertTrue(result["correct"])
        code, lines, result = bench("sptf_random", "--scale", "0.25", "--seconds", "1",
                                    "--perturbed-sptf")
        self.assertEqual(code, 1, lines)
        self.assertFalse(result["correct"])
        self.assertTrue(any("SPTF exactness" in line for line in lines), lines)
        self.assertEqual(result["failed"], result["attempted"])

    def test_lost_completion_fails_the_run(self):
        for workload in ("sptf_random", "array_rebuild"):
            with self.subTest(workload=workload):
                code, lines, result = bench(workload, *TINY, "--drop-request", "50")
                self.assertEqual(code, 1, lines)
                self.assertFalse(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], result["attempted"])
                self.assertTrue(any("requests failed" in line for line in lines), lines)

    def test_unknown_workload_is_rejected(self):
        code, lines, result = bench("no_such_workload", *TINY)
        self.assertEqual(code, 2, lines)
        self.assertIsNone(result)

    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines, result = bench("sptf_random", *TINY,
                                        run=os.path.join(tmp, "perfbench", "run.py"))
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
