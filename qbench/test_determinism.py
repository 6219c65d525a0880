#!/usr/bin/env python3
"""Determinism test of the benchmark itself.

Two short runs with the same seed must report identical counts, and the
daemon_mix request sequence must depend on the seed.  Run from the
repository root (it builds the benchmark on first use, like run.py):

    python3 qbench/test_determinism.py
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QBENCH = os.path.join(ROOT, ".bench_build", "bin", "qbench")


def run(workload, seed, trace, seconds):
    out = subprocess.run([sys.executable, "qbench/run.py", "--workload", workload, "--seed", str(seed),
                          "--trace", str(trace), "--seconds", str(seconds)],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"run.py {workload} failed:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def schedule(seed, seconds=10):
    out = subprocess.run([QBENCH, "mix-schedule", "--seed", str(seed), "--seconds", str(seconds)],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


class Determinism(unittest.TestCase):
    def test_sweep_counts_repeat(self):
        for workload in ("dse_sweep", "dse_sat"):
            a, b = run(workload, 7, 0, 1), run(workload, 7, 0, 1)
            for name in ("t_count_sum", "qubits_sum"):
                self.assertEqual(a[name], b[name], f"{workload} {name}")

    def test_layer_counts_repeat(self):
        a, b = run("dse_sat", 7, 1, 1), run("dse_sat", 7, 1, 1)
        for name in ("cache.misses", "graph.tasks_run", "sat.checks", "exorcism.terms",
                     "optimize.ands_out", "lut_map.luts"):
            self.assertEqual(a[name], b[name], name)

    def test_daemon_counts_repeat(self):
        a, b = run("daemon_mix", 7, 1, 3), run("daemon_mix", 7, 1, 3)
        for name in ("daemon.synthesized", "exorcism.terms", "store.writes"):
            self.assertEqual(a[name], b[name], name)

    def test_mix_sequence_depends_on_seed(self):
        run("daemon_mix", 7, 0, 1)  # builds the benchmark if needed
        self.assertEqual(schedule(7), schedule(7))
        self.assertNotEqual(schedule(7)["schedule_hash"], schedule(8)["schedule_hash"])


if __name__ == "__main__":
    unittest.main()
