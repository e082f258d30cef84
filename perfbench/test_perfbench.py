#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Each case runs perfbench/run.py with a short time budget (under a minute
in all on a 4-core host, plus the first build).
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper_path", "mesh_dense", "lot_red", "mesh_10k")
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(workload, seed=1, trace=0, seconds=0.1):
    """Run the benchmark once; return (fingerprint, result object)."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = done.stdout.strip().splitlines()
    header = lines[0].split()
    fingerprint = header[header.index("fingerprint") + 1]
    return fingerprint, json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
        cls.per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
        cls.traced = {w: run(w, trace=1) for w in WORKLOADS}

    def test_same_seed_gives_same_fingerprint(self):
        first, result = run("lot_red", seed=3)
        second, _ = run("lot_red", seed=3)
        self.assertTrue(result["correct"])
        self.assertEqual(first, second)

    def test_seed_reaches_the_program(self):
        one, _ = run("lot_red", seed=1)
        two, _ = run("lot_red", seed=2)
        self.assertNotEqual(one, two)

    def test_pinned_fingerprints_hold(self):
        pins = json.loads((ROOT / "perfbench" / "pins.json").read_text())
        for workload, (fingerprint, result) in self.traced.items():
            with self.subTest(workload=workload):
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(fingerprint, pins["fingerprints"][workload])

    def test_spans_fit_inside_the_run(self):
        for workload, (_, result) in self.traced.items():
            with self.subTest(workload=workload):
                m = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertLessEqual(m["net.forward_s"] + m["tcp.endpoint_s"], m["sim.run_s"])

    def test_emitted_names_are_declared(self):
        _, untraced = run("paper_path", trace=0)
        checks = [(self.end_to_end, untraced)]
        checks += [(self.per_layer, result) for _, result in self.traced.values()]
        for declared, result in checks:
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(emitted, declared)
            for name in emitted:
                self.assertTrue(NAME.fullmatch(name), name)


if __name__ == "__main__":
    unittest.main()
