#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

    python3 perfbench/test_perfbench.py

Runs every workload in its tiny mode (a few hundred nodes, seconds each)
through run.py and checks the result contract: metric names and units, the
operation counts, that an injected wrong answer is counted as failed, that
the fingerprint repeats for one seed, and that the benchmark refuses to run
without the library sources.  The first run builds the benchmark like
run.py does.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(workload, *extra, trace=0, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, result


class PerfbenchTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def test_benchmark_json_matches_run_py(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)

    def test_untraced_run_reports_end_to_end_metrics(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, result = bench(workload)
                self.assertEqual(code, 0)
                self.assertEqual(set(result), RESULT_KEYS)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(units, run.END_TO_END)
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_traced_run_reports_per_layer_metrics(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, result = bench(workload, trace=1)
                self.assertEqual(code, 0)
                self.assertEqual(set(result), RESULT_KEYS)
                self.assertTrue(result["correct"])
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(units, run.PER_LAYER)
                self.assertEqual(
                    result["metrics"]["proto.decode_errors"]["value"], 0)
                self.assertGreater(
                    result["metrics"]["data.generate_s"]["value"], 0)

    def test_injected_wrong_answer_is_counted_as_failed(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, result = bench(workload, "--inject-wrong-answer")
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_fingerprint_repeats_for_one_seed(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                prints = []
                for _ in range(2):
                    proc = subprocess.run(
                        [str(self.binary), "--workload", workload, "--seed",
                         "5", "--tiny"],
                        stdout=subprocess.PIPE, text=True, timeout=300)
                    self.assertEqual(proc.returncode, 0)
                    prints.append(
                        json.loads(proc.stdout.splitlines()[-1])["fingerprint"])
                self.assertEqual(prints[0], prints[1])

    def test_refuses_to_run_without_library_sources(self):
        bare = run.build_dir() / "selftest_bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            code, result = bench("pipeline_4k", cwd=bare,
                                 script=bare / "perfbench" / "run.py")
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
