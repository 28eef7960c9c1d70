"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The declaration tests are instant. The output test builds the programs
and runs every workload once per mode with a one-second budget (each still
makes its minimum number of rounds), so it takes a few minutes.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (the benchmark runner)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class Declarations(unittest.TestCase):
    def test_metric_and_workload_names_are_well_formed(self):
        b = declared()
        names = [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        names += [w["name"] for w in b["workloads"]]
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "every name is used once")
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))

    def test_the_runner_runs_exactly_the_declared_workloads(self):
        b = declared()
        self.assertEqual({w["name"] for w in b["workloads"]}, set(run.WORKLOADS))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in b["end_to_end"]))

    def test_the_seed_panel_is_a_function_of_the_seed(self):
        self.assertEqual(run.panel_seeds(7), run.panel_seeds(7))
        self.assertEqual(run.panel_seeds(7)[0], 7)
        self.assertEqual(len(set(run.panel_seeds(7))), run.PANEL)
        self.assertEqual(len(set(run.panel_seeds(run.FIXED_SEEDS[0]))), run.PANEL)
        self.assertNotEqual(run.panel_seeds(7), run.panel_seeds(8))

    def test_children_see_no_dr_variable(self):
        os.environ["DR_THREADS"] = "4"
        try:
            self.assertFalse(any(k.startswith("DR_") for k in run.hermetic_env()))
        finally:
            del os.environ["DR_THREADS"]


class Output(unittest.TestCase):
    def run_bench(self, workload, trace):
        p = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        return json.loads(p.stdout.strip().splitlines()[-1])

    def test_every_declared_metric_is_printed_with_its_unit_on_every_workload(self):
        b = declared()
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            for w in b["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    out = self.run_bench(w["name"], trace)
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreaterEqual(out["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in b[kind]}
                    got = {k: v["unit"] for k, v in out["metrics"].items()}
                    self.assertEqual(got, want)
                    for k, v in out["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), k)


if __name__ == "__main__":
    unittest.main()
