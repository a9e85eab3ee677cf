#!/usr/bin/env python3
"""Fast self-test of the benchmark itself (about half a minute):

    python3 benchmarks/selftest.py

Every workload runs at minimal size and passes its checks; the result
lines name exactly the metrics of BENCHMARK.json with their units;
traced spans nest, self time is at most total time, and the wrappers
are gone after the traced run; each op is scaled by the calibrations
just before and after it; an op that raises is counted as failed
without ending the run; without the program the benchmark exits
nonzero and prints no result.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def module_attributes() -> dict:
    """(module, attribute) -> object for every relyamabe module."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "relyamabe" or name.startswith("relyamabe.")):
            for key, value in vars(mod).items():
                out[(name, key)] = value
    return out


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.lib, cls.cli = run.load_program()
        os.makedirs(run.OUT_DIR, exist_ok=True)
        cls.scratch = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR)
        cls.ctx = workloads.Context(cls.lib, cls.cli, cls.scratch)
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            cls.spec = json.load(fh)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.scratch, ignore_errors=True)

    def test_workloads_pass_at_minimal_size(self):
        for name in workloads.WORKLOADS:
            ops = workloads.build(name, 0, self.ctx, mini=True)
            results = run.run_pass(ops)
            problems = [(op.label, o.problems) for op, (*_, o) in zip(ops, results) if o.problems]
            self.assertEqual(problems, [], name)
            summary = run.summarize(ops, [results, run.run_pass(ops)])
            self.assertEqual(summary["failed"], [], name)
            self.assertIn(workloads.REF_ERR_SOURCE[name], summary["accuracy"])

    def test_inputs_depend_on_the_seed_only(self):
        for name in workloads.WORKLOADS:
            a = [op.label for op in workloads.build(name, 3, self.ctx)]
            b = [op.label for op in workloads.build(name, 3, self.ctx)]
            c = [op.label for op in workloads.build(name, 4, self.ctx)]
            self.assertEqual(a, b)
            self.assertNotEqual(a, c)

    def result_line(self, name: str, trace: int) -> dict:
        out = io.StringIO()
        old = run.SETUP_RUNS
        run.SETUP_RUNS = 1
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", name, "--seed", "0", "--seconds", "1",
                                 "--trace", str(trace)], mini=True)
        finally:
            run.SETUP_RUNS = old
        self.assertEqual(code, 0)
        return json.loads(out.getvalue().strip().splitlines()[-1])

    def test_result_lines_carry_every_metric_with_its_unit(self):
        wanted = {
            0: {m["name"]: m["unit"] for m in self.spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in self.spec["per_layer"]},
        }
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(workloads.WORKLOADS))
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                line = self.result_line(name, trace)
                self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(line["correct"], (name, trace))
                self.assertEqual(line["failed"], 0)
                self.assertGreaterEqual(line["attempted"], 1)
                got = {k: v["unit"] for k, v in line["metrics"].items()}
                self.assertEqual(got, wanted[trace], (name, trace))
                for key, value in line["metrics"].items():
                    self.assertTrue(math.isfinite(value["value"]), (name, key))
                    if trace == 0:
                        self.assertGreater(value["value"], 0.0, (name, key))

    def test_traced_spans_nest_and_wrappers_are_removed(self):
        before = module_attributes()
        diff_ops = self.lib.HopfGrid.__dict__["diff_ops"]
        tracer = spans.Tracer()
        for name in workloads.WORKLOADS:
            ops = workloads.build(name, 1, self.ctx, mini=True)
            tracer.reset()
            tracer.install()
            try:
                self.assertIsNot(self.lib.criterion.curvature_report,
                                 before[("relyamabe.criterion", "curvature_report")])
                self.assertIsNot(self.lib.cli.render_payload,
                                 before[("relyamabe.cli", "render_payload")])
                results = run.run_pass(ops, tracer)
            finally:
                tracer.remove()
            self.assertTrue(all(not o.problems for *_, o in results), name)
            self.assertEqual(spans.nesting_problems(tracer.spans), [], name)
            summary = tracer.layer_summary()
            self.assertEqual(set(summary) | {"trace.overhead_s"}, set(spans.LAYER_METRICS))
            self.assertTrue(all(v >= 0 for v in summary.values()), name)
            ops_total = sum(e - s for n, s, e, p, _ in tracer.spans if p < 0)
            self_total = sum(v for k, v in summary.items() if k.endswith(".self_s"))
            self.assertLessEqual(self_total, ops_total)
        self.assertFalse(tracer.installed)
        self.assertIs(self.lib.HopfGrid.__dict__["diff_ops"], diff_ops)
        after = module_attributes()
        changed = [k for k, v in before.items() if after.get(k) is not v]
        self.assertEqual(changed, [])

    def test_a_raising_op_is_a_failure_and_the_run_goes_on(self):
        def boom(state):
            raise RuntimeError("injected")

        ops = [
            workloads.lib_op("boom", "raises", boom, lambda r, st, res: None),
            workloads.cli_op(self.ctx, "bad-flag", ["yamabe", "--no-such-flag"],
                             lambda data, res: None),
            workloads.cli_op(self.ctx, "bad-input", ["curvature", "--s", "2", "--t", "1"],
                             lambda data, res: None),
        ] + workloads.build("criterion-plane", 0, self.ctx, mini=True)[-1:]
        with contextlib.redirect_stderr(io.StringIO()):
            results = run.run_pass(ops)
        summary = run.summarize(ops, [results])
        self.assertEqual(summary["attempted"], 4)
        self.assertEqual([i for i, _ in summary["failed"]], [0, 1, 2])
        self.assertEqual(results[-1][-1].problems, [])

    def test_without_the_program_it_exits_nonzero_without_a_result(self):
        bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT_DIR)
        try:
            shutil.copytree(run.HERE, os.path.join(bare, "benchmarks"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
            proc = subprocess.run(
                [sys.executable, *self.spec["command"][1:], "--workload", "quotient-estimate",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_latencies_are_scaled_by_the_calibrations_around_them(self):
        readings = [0.02, 0.01, 0.04, 0.005]
        ops = [workloads.lib_op("noop", str(i), lambda st: None, lambda r, st, res: None)
               for i in range(3)]
        old = run.calibrate, run.CAL_EVERY
        run.calibrate, run.CAL_EVERY = iter(readings).__next__, 0.0
        try:
            results = run.run_pass(ops)
        finally:
            run.calibrate, run.CAL_EVERY = old
        for i, (lat, scaled, _) in enumerate(results):
            c = 0.5 * (readings[i] + readings[i + 1])
            self.assertAlmostEqual(scaled, lat * run.CAL_REF_S / c)

    def test_tail_needs_ten_ops_beyond_it(self):
        self.assertIsNone(run.tail([1.0] * 19))
        pct, value = run.tail([float(i) for i in range(100)])
        self.assertEqual((pct, value), (90.0, 89.0))


if __name__ == "__main__":
    unittest.main()
