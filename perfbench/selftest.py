"""Checks of the benchmark itself.

    python3 perfbench/selftest.py        # about a minute on two cores

Same seed, same generated inputs and the same counts; another seed, other
inputs; metric names match BENCHMARK.json; span self times; scaling by
the reference kernel; and a run in a
directory without the magflow sources fails without printing a result.
The file name keeps it out of the package's pytest collection.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics as M  # noqa: E402
import run  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import (WORKLOADS, build_profiles, generate,  # noqa: E402
                       run_pass)

COUNTED = ("flow.nfev", "reduced.closures_found", "hopf.link_segment_pairs")


def _traced_pass(mf, workload, seed):
    tr = Tracer(True)
    tr.pass_id = -1
    inputs = generate(workload, seed)
    profiles = build_profiles(mf, inputs["profiles"], tr)
    tr.pass_id = 0
    ps = run_pass(mf, workload, inputs, profiles, tr)
    return tr, ps


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in WORKLOADS:
            self.assertEqual(json.dumps(generate(w, 7)),
                             json.dumps(generate(w, 7)))

    def test_other_seed_other_inputs(self):
        for w in WORKLOADS:
            self.assertNotEqual(generate(w, 7), generate(w, 8))


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        tr = Tracer(True)
        with tr.span("cz", "outer"):
            with tr.span("cz", "inner"):
                pass
        outer, inner = tr.spans
        st = self_times(tr.spans)
        self.assertAlmostEqual(st[outer.id],
                               outer.duration - inner.duration, places=12)
        self.assertEqual(st[inner.id], inner.duration)

    def test_disabled_tracer_records_nothing(self):
        tr = Tracer(False)
        with tr.span("cz", "outer") as sp:
            sp.set(n=1)
        self.assertEqual(tr.spans, [])


class ScalingTest(unittest.TestCase):
    def test_pass_time_cancels_the_kernel_speed(self):
        import reference

        class P:
            def __init__(self, walls, samples):
                self.op_walls = walls
                self.op_sample = samples
        k = reference.NOMINAL_S
        speed = reference.Speedometer(0.0)
        # the machine runs at half speed, then at a third
        speed.samples = [2 * k] * 4 + [3 * k] * 4
        passes = [P([2.0, 4.0], [1, 2]), P([3.0, 6.0], [6, 7])]
        self.assertAlmostEqual(run.pass_time(passes, speed), 3.0, places=12)

    def test_kernel_does_not_import_magflow(self):
        import reference
        with open(reference.__file__) as fh:
            src = fh.read()
        self.assertNotIn("import magflow", src)
        self.assertNotIn("from magflow", src)
        self.assertGreater(reference.kernel_s(), 0.0)


class DeterminismTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.mf = run._import_magflow()
        with open(os.path.join(os.path.dirname(HERE),
                               "BENCHMARK.json")) as fh:
            cls.bench = json.load(fh)

    def test_counts_repeat_and_names_match(self):
        per_layer = {m["name"] for m in self.bench["per_layer"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                runs = [_traced_pass(self.mf, w, 3) for _ in range(2)]
                self.assertEqual(runs[0][1].failures, [])
                got = []
                for tr, ps in runs:
                    mets, _ = M.layer_metrics(tr.spans, [(1.0, ps)], [1.0])
                    self.assertEqual(set(mets), per_layer)
                    got.append({k: mets[k]["value"] for k in COUNTED})
                self.assertEqual(got[0], got[1])
                if w == "orbits":
                    self.assertGreater(
                        mets["hopf.link_bytes_computed"]["value"], 0)
                self.assertEqual(runs[0][1].counts, runs[1][1].counts)

    def test_end_to_end_names_match(self):
        names = {m["name"] for m in self.bench["end_to_end"]}
        self.assertEqual(set(M.end_to_end(1.0, 1.0, 1.0)), names)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "scan",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
