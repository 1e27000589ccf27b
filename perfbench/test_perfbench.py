#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 -m unittest perfbench/test_perfbench.py

They build the benchmark (as perfbench/run.py does) and check that the same
seed gives the same op sequence and output digests, that one flipped word of
one output fails the check, and that a short run emits every metric named in
BENCHMARK.json with its unit.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)

WORKLOADS = run.WORKLOADS
OPS = {"module_flow": 12, "swap_closed": 40, "task_graphs": 12}
BINARY = None


def setUpModule():
    global BINARY
    BINARY = run.build(ROOT)


def bench(workload, seed, *extra):
    """Runs the binary for a fixed op count; returns the parsed last line."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "0",
           "--ops", str(OPS[workload])] + list(extra)
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


class SameSeedSameRun(unittest.TestCase):
    def test_digests_repeat_for_a_seed_and_change_with_it(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, b, c = bench(w, 7), bench(w, 7), bench(w, 8)
                for r in (a, b, c):
                    self.assertTrue(r["correct"], r["info"])
                    self.assertEqual(r["failed"], 0)
                self.assertEqual(a["attempted"], OPS[w])
                self.assertEqual(a["info"]["ops_digest"],
                                 b["info"]["ops_digest"])
                self.assertEqual(a["info"]["output_digest"],
                                 b["info"]["output_digest"])
                self.assertNotEqual(a["info"]["ops_digest"],
                                    c["info"]["ops_digest"])


class CorruptedOutputFailsCheck(unittest.TestCase):
    def test_one_flipped_word_is_caught(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = bench(w, 7, "--corrupt-op", "1")
                self.assertFalse(r["correct"], r["info"])


class ShortRunEmitsEveryMetric(unittest.TestCase):
    def test_every_named_metric_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
        for w in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    done = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"),
                         "--workload", w, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace)],
                        cwd=ROOT, stdout=subprocess.PIPE, text=True,
                        timeout=180, check=True)
                    lines = done.stdout.splitlines()
                    self.assertTrue(lines[-2].startswith("host: "))
                    r = json.loads(lines[-1])
                    self.assertEqual(set(r), {"correct", "attempted",
                                              "failed", "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assertEqual(r["failed"], 0)
                    want = {m["name"]: m["unit"] for m in spec[key]}
                    got = {k: v["unit"] for k, v in r["metrics"].items()}
                    self.assertEqual(got, want)
                    for v in r["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))


if __name__ == "__main__":
    unittest.main()
