"""Smoke test of the benchmark runner.

Run from the root of a checkout (takes about a minute):

    python3 bench/smoke_test.py

Tiny runs of every workload, untraced and traced, must print a fingerprint
and every metric BENCHMARK.json names, with all gates passing.  A tampered
CSV must trip the gate, and a directory without the sources must make the
runner fail without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest

import run


def run_tiny(workload: str, trace: int, root=run.ROOT):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=600)


class SmokeTest(unittest.TestCase):

    def test_every_metric_emitted_and_gates_pass(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_tiny(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]),
                                     set(run.metric_units(bool(trace))))
                    finger = [json.loads(line)["fingerprint"]
                              for line in lines if '"fingerprint"' in line]
                    self.assertEqual(len(finger), 1)
                    self.assertEqual(len(finger[0]["csv_sha256"]), 64)
                    if workload == "desk-parallel" and trace:
                        self._check_worker_spans(result["metrics"])

    def _check_worker_spans(self, metrics):
        # Under a pool the dictionary is built only inside the workers, once
        # per chunk, so its call count shows that worker spans were merged.
        threads = len(os.sched_getaffinity(0))
        if threads < 2:
            self.skipTest("one CPU: desk-parallel runs serially")
        points = len(run.TINY["sweep_values"].split(","))
        chunks = min(threads * 4, run.TINY["trials"])
        self.assertEqual(metrics["arrays.build_dictionary.calls"]["value"],
                         points * chunks)
        self.assertGreater(metrics["harness.worker_busy_ratio"]["value"], 0.0)

    def test_tampered_csv_trips_gate(self):
        real = run.run_sweep
        calls = []

        def tampered(*args, **kwargs):
            sweep = real(*args, **kwargs)
            calls.append(sweep)
            if len(calls) == 2:  # the traced sweep: flip its last digit
                data = sweep.csv
                sweep.csv = data[:-2] + bytes([data[-2] ^ 1]) + data[-1:]
            return sweep

        run.run_sweep = tampered
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                result = run.run_workload("desk-snr", 3, 1.0, True, tiny=True)
        finally:
            run.run_sweep = real
        self.assertEqual(len(calls), 2)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_non_finite_nmse_trips_gate(self):
        config = dict(run.DESK, trials=1, sweep_values="10")
        header = ",".join(["sweep_value", "estimator", "nmse", "trials"])
        rows = [f"10.0,{name},{value},1" for name, value in
                zip(run.ESTIMATORS, ("0.1", "nan", "0.3", "0.4"))]
        data = ("\n".join([header, *rows]) + "\n").encode()
        errors = run.check_csv(data, config, n_points=1)
        self.assertEqual(len(errors), 1)
        self.assertIn("non-finite", errors[0])

    def test_fails_without_sources(self):
        bare = run.OUT_DIR / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = run_tiny("desk-snr", 0, root=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
