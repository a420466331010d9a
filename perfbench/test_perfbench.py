#!/usr/bin/env python3
"""Tests of the benchmark itself.

Run from the root of a wsearch checkout:

    python3 -m unittest perfbench/test_perfbench.py

Builds through run.py, so the first run compiles the benchmark. The
metric-contract test runs every workload briefly in both modes (about
two minutes on a 4-CPU host).
"""

import copy
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

# Simulated per-layer metrics: exact counts, identical for one seed.
SIM_COUNTS = (
    "trace.buffer_mb",
    "memsim.l1i_lookups_per_rec",
    "memsim.l1i_hit_ratio",
    "memsim.l1d_hit_ratio",
    "memsim.simulated_frac",
    "memsim.sample_rel_err",
    "memsim.band_covers",
    "memsim.coh_events_per_krec",
    "memsim.l4_hit_ratio",
)

_runs = {}


def bench(workload, seed, trace, seconds=2):
    """Runs run.py once per argument set; returns (report, result)."""
    key = (workload, seed, trace, seconds)
    if key not in _runs:
        r = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if r.returncode != 0:
            raise AssertionError(f"run.py failed: {r.stderr[-2000:]}")
        lines = r.stdout.strip().splitlines()
        report = json.loads(
            next(l for l in lines if l.startswith("REPORT "))[7:])
        _runs[key] = (report, json.loads(lines[-1]))
    return _runs[key]


class SelfTest(unittest.TestCase):
    def test_cpp_selftest(self):
        """Digest perturbation, submit-path stall, tail rule."""
        run.build(run.build_dir())
        exe = os.path.join(run.build_dir(), "perfbench_selftest")
        r = subprocess.run([exe], capture_output=True, text=True,
                           timeout=120)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("selftest: ok", r.stdout)


class GoldenDigest(unittest.TestCase):
    def test_perturbed_digest_is_caught(self):
        golden = {"sim-ladder": {"5": "00000000000000aa"}}
        report = {"digest": "00000000000000aa"}
        check = run.check_golden
        self.assertEqual(check("sim-ladder", "digest", 5, report, golden),
                         (True, True))
        bad = dict(report, digest="00000000000000ab")
        self.assertEqual(check("sim-ladder", "digest", 5, bad, golden),
                         (True, False))
        self.assertEqual(check("sim-ladder", "digest", 6, bad, golden),
                         (False, True))

    def test_every_recorded_seed_has_both_digests(self):
        with open(run.GOLDEN) as f:
            golden = json.load(f)
        self.assertEqual(set(golden["sim-ladder"]),
                         set(golden["sim-ladder-system"]))
        self.assertIn("4242", golden["sim-ladder"])

    def test_recorded_digests_match(self):
        with open(run.GOLDEN) as f:
            golden = json.load(f)
        seed = min(int(s) for s in golden["sim-ladder"])
        report, result = bench("sim-ladder", seed, 0)
        self.assertEqual(report["golden_digest"], "match")
        self.assertTrue(result["correct"])
        report, result = bench("sim-ladder", seed, 1)
        self.assertEqual(report["golden_digest"], "match")
        self.assertEqual(report["golden_system_digest"], "match")
        self.assertTrue(result["correct"])


class MetricContract(unittest.TestCase):
    def test_names_and_units_match_declaration(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            decl = json.load(f)
        for w in decl["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                _, result = bench(w["name"], 1, trace)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed",
                                  "metrics"})
                want = {m["name"]: m["unit"] for m in decl[key]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want, (w["name"], trace))
                self.assertTrue(result["correct"], (w["name"], trace))
                self.assertEqual(result["failed"], 0)
                if trace == 0:
                    for k, v in result["metrics"].items():
                        self.assertGreater(v["value"], 0, (w["name"], k))


class Repeatability(unittest.TestCase):
    def test_sim_layer_counts_repeat_exactly(self):
        a_rep, a = bench("sim-ladder", 7, 1)
        b_rep, b = copy.deepcopy(bench("sim-ladder", 7, 1, seconds=3))
        self.assertEqual(a_rep["digest"], b_rep["digest"])
        self.assertEqual(a_rep["system_digest"], b_rep["system_digest"])
        for name in SIM_COUNTS:
            self.assertEqual(a["metrics"][name]["value"],
                             b["metrics"][name]["value"], name)


if __name__ == "__main__":
    unittest.main()
