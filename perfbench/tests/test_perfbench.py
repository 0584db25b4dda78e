#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale.

Runs every workload of BENCHMARK.json through perfbench/run.py on a tiny
corpus, untraced and traced, and checks the result contract: the last
stdout line is one JSON object with exactly the keys correct, attempted,
failed and metrics; the run is correct; every end-to-end metric (untraced)
or per-layer metric (traced) is present with its unit. It also checks that
churn's traced run sees consistency polls, that in-process runs of one seed
repeat their modeled digest exactly, and that the benchmark refuses to run
without the warehouse sources.

    python3 perfbench/tests/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed=7, trace=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


class ResultContract(unittest.TestCase):
    def check(self, workload, trace, metrics):
        proc = run(workload, trace=trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result, lines = result_of(proc)
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], "\n".join(lines[-8:]))
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertIsInstance(result["failed"], int)
        self.assertTrue(any(l.startswith("# host:") for l in lines) or trace)
        for metric in metrics:
            self.assertIn(metric["name"], result["metrics"], workload)
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float))
        return result

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check(workload, 0, SPEC["end_to_end"])
                for metric in SPEC["end_to_end"]:
                    self.assertGreater(
                        result["metrics"][metric["name"]]["value"], 0,
                        metric["name"])

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check(workload, 1, SPEC["per_layer"])
                if workload == "churn":
                    # The poll/refresh path runs inside the measured phase.
                    self.assertGreater(
                        result["metrics"]["core.polls_per_kop"]["value"], 0)


class Determinism(unittest.TestCase):
    def test_in_process_runs_repeat_their_model_digest(self):
        for workload in ("analytics", "churn"):
            with self.subTest(workload=workload):
                digests = []
                for _ in range(2):
                    proc = run(workload, seed=11)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    _, lines = result_of(proc)
                    digests.append([l for l in lines
                                    if l.startswith("# model digest")])
                self.assertEqual(len(digests[0]), 1)
                self.assertEqual(digests[0], digests[1])


class WithoutSources(unittest.TestCase):
    def test_refuses_to_run(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(tmp, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py",
                 "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
