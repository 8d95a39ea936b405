#!/usr/bin/env python3
"""Smoke self-test of the benchmark.

    python3 perfbench/selftest.py

Runs one short pass of every workload, untraced and traced, and checks that
every metric BENCHMARK.json names is reported with its unit; checks that a
reference perturbed past its tolerance raises wrong_ratio; that wrappers
whose entry point is gone read zero instead of crashing; and that the
benchmark refuses to run without the package source. Takes about a minute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def load(name: str) -> dict:
    with open(name, encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


class ShortPass(unittest.TestCase):
    def test_every_named_metric_is_reported(self):
        spec = load(os.path.join(ROOT, "BENCHMARK.json"))
        for wl in spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=wl["name"], trace=trace):
                    proc = run_bench(ROOT, "--workload", wl["name"], "--seed", "7",
                                     "--seconds", "1", "--trace", str(trace))
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stderr[-2000:])
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in spec[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, m in result["metrics"].items():
                        self.assertTrue(math.isfinite(m["value"]), name)


class Checks(unittest.TestCase):
    def test_perturbed_reference_raises_wrong_ratio(self):
        import atomdecoh

        def checks(refs):
            wl = workloads.MomentumPurity(atomdecoh, refs)
            out = workloads.Outcome()
            wl.evaluate_points(out)
            return workloads.summarize_checks(wl.points, out.point_errors)

        refs = load(os.path.join(HERE, "refs.json"))
        before = checks(refs)
        self.assertEqual(before["unexpected"], [])
        target = next(p for p in refs["workloads"]["momentum_purity"] if "known_defect" not in p)
        target["value"] = repr(float(target["value"]) * (1.0 + 10.0 * target["tol"]))
        after = checks(refs)
        self.assertGreater(after["wrong_ratio"], before["wrong_ratio"])
        self.assertLess(after["within_tol_ratio"], before["within_tol_ratio"])
        self.assertEqual(len(after["unexpected"]), 1)

    def test_known_defect_is_reported_not_hidden(self):
        refs = load(os.path.join(HERE, "refs.json"))
        defects = [p["id"] for p in refs["workloads"]["momentum_purity"] if "known_defect" in p]
        self.assertIn("momentum_density(q=50,z0=0.01)", defects)
        self.assertIn("momentum_density(q=50,z0=0.1)", defects)


class Wrappers(unittest.TestCase):
    def test_missing_entry_points_read_zero(self):
        import atomdecoh.momentum as momentum
        import atomdecoh.scattering as scattering

        saved = momentum.integrate_fourier_sine, scattering.quad
        del momentum.integrate_fourier_sine, scattering.quad
        tracer = tracing.Tracer()
        try:
            tracer.install_library()
            self.assertFalse(hasattr(momentum, "integrate_fourier_sine"))
            self.assertFalse(hasattr(scattering, "quad"))
        finally:
            tracer.uninstall()
            momentum.integrate_fourier_sine, scattering.quad = saved
        metrics = tracing.layer_metrics([tracer.dump()], [])
        for name, _ in tracing.LAYER_METRICS:
            if name in metrics:
                self.assertEqual(metrics[name], 0.0, name)


class Bare(unittest.TestCase):
    def test_refuses_without_package_source(self):
        bare = os.path.join(HERE, "out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = run_bench(bare, "--workload", "momentum_purity", "--seed", "1",
                             "--seconds", "1", "--trace", "0")
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
