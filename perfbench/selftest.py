"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py          # everything, including one smoke pass per workload
    python3 perfbench/selftest.py -k Rules # the fast checks only

Covers the ``BENCHMARK.json`` limits, the percentile rule, self-time
arithmetic on a synthetic span tree, the generator's construction answers
(no solver involved), the oracle, and one checked pass of each workload.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import guarded  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


class RulesTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_metric_names_units_and_counts(self):
        e2e, per_layer = self.spec["end_to_end"], self.spec["per_layer"]
        self.assertLessEqual(len(e2e), 16)
        self.assertLessEqual(len(per_layer), 128)
        names = [m["name"] for m in e2e + per_layer] + [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for metric in e2e + per_layer:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))

    def test_bounds_and_setup(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertTrue(all(0 < bound <= 0.25 for bound in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        setup = next(m for m in self.spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))

    def test_workloads_match_harness(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]), run.WORKLOADS)

    def test_per_layer_names_match_what_a_traced_run_reports(self):
        reported = set(layers.layer_metrics(
            layers.Recorder(), wall_s=1.0, import_s=0.1, telemetry={}))
        reported |= {f"{name}.{end}" for name in run.UNSTEADY_COUNTS for end in ("min", "max")}
        reported |= {"obs.trace_overhead", "sched.unpinned_wall_s"}
        self.assertEqual(reported, {m["name"] for m in self.spec["per_layer"]})


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        random.Random(0).shuffle(values)
        self.assertEqual(run.percentile(values, 0.5), 50)
        self.assertEqual(run.percentile(values, 0.9), 90)
        self.assertEqual(run.percentile([7.0], 0.9), 7.0)

    def test_ten_samples_beyond(self):
        self.assertTrue(run.reportable(100, 0.9))
        self.assertFalse(run.reportable(99, 0.9))
        self.assertTrue(run.reportable(20, 0.5))
        self.assertFalse(run.reportable(19, 0.5))
        self.assertFalse(run.reportable(0, 0.5))


class SelfTimeTest(unittest.TestCase):
    def test_span_tree(self):
        # root [0,10] has children a [1,4] and b [5,9]; a has child c [2,3];
        # d [3.5,6] overlaps both a and b and hangs off root too.
        spans = [
            layers.Span(1, "root", 0.0, 10.0, None, None, 0),
            layers.Span(2, "a", 1.0, 4.0, 1, None, 0),
            layers.Span(3, "b", 5.0, 9.0, 1, None, 0),
            layers.Span(4, "c", 2.0, 3.0, 2, None, 0),
            layers.Span(5, "d", 3.5, 6.0, 1, None, 0),
        ]
        own = layers.self_seconds(spans)
        self.assertAlmostEqual(own[1], 10.0 - 8.0)  # children cover [1,9]
        self.assertAlmostEqual(own[2], 2.0)
        self.assertAlmostEqual(own[3], 4.0)
        self.assertAlmostEqual(own[4], 1.0)
        self.assertAlmostEqual(own[5], 2.5)

    def test_recorder_nesting_and_sites(self):
        recorder = layers.Recorder()
        inner = recorder.wrap("inner", lambda: time.sleep(0.01))
        outer = recorder.wrap("outer", lambda site: inner(), site_of=lambda args: args[0])
        outer("app/site")
        by_name = {span.name: span for span in recorder.spans}
        self.assertEqual(by_name["inner"].parent, by_name["outer"].id)
        self.assertEqual(by_name["inner"].site, "app/site")
        own = layers.self_seconds(recorder.spans)
        self.assertLess(own[by_name["outer"].id], by_name["inner"].seconds)

    def test_outermost_only(self):
        recorder = layers.Recorder()

        def fact(n):
            return 1 if n <= 1 else n * wrapped(n - 1)

        wrapped = recorder.wrap("fact", fact, outermost=True)
        self.assertEqual(wrapped(5), 120)
        self.assertEqual(len(recorder.spans), 1)


class GeneratorTest(unittest.TestCase):
    SEEDS = (1, 2, 3)

    def test_same_seed_same_bytes(self):
        for seed in self.SEEDS:
            first = [(p.source, p.seed_input) for p in guarded.generate(seed)]
            second = [(p.source, p.seed_input) for p in guarded.generate(seed)]
            self.assertEqual(first, second)
        self.assertNotEqual(guarded.generate(1)[0].source, guarded.generate(2)[0].source)

    def test_mix_and_seed_inputs(self):
        programs = guarded.generate(5)
        self.assertEqual(sum(p.masked for p in programs), 8)
        for program in programs:
            self.assertEqual(guarded.decode(program.seed_input), (program.seed_w, program.seed_h))
            self.assertTrue(program.guards_pass(program.seed_w, program.seed_h))
            self.assertFalse(program.overflows(program.seed_w, program.seed_h))

    def test_construction_answers_without_a_solver(self):
        for seed in self.SEEDS:
            for program in guarded.generate(seed):
                # The program text carries the mask guards exactly when the
                # Python restatement applies them.
                self.assertEqual(guarded.MASK_GUARDS in program.source, program.masked)
                if program.masked:
                    for w in range(256):
                        for h in range(256):
                            self.assertFalse(program.guards_pass(w, h) and program.overflows(w, h))
                    # The mask guards are what block the overflow: the same
                    # program without them admits an overflowing input.
                    twin = dataclasses.replace(program, masked=False)
                    found = guarded.find_overflowing_input(twin)
                    self.assertIsNotNone(found, program.name)
                    self.assertFalse(program.guards_pass(*found))
                else:
                    found = guarded.find_overflowing_input(program)
                    self.assertIsNotNone(found, program.name)
                    self.assertTrue(program.guards_pass(*found) and program.overflows(*found))


class OracleTest(unittest.TestCase):
    def _guarded_pass(self, seed):
        sites = []
        for program in guarded.generate(seed):
            witness = None
            if program.answer == guarded.EXPOSED:
                witness = guarded.encode(*guarded.find_overflowing_input(program)).hex()
            sites.append({"app": program.name, "tag": guarded.SITE_TAG,
                          "verdict": program.answer, "witness": witness})
        return {"sites": sites}

    def test_guarded_accepts_and_rejects(self):
        out = self._guarded_pass(4)
        self.assertEqual(oracle.check_guarded(out, 4)[:2], (guarded.PROGRAMS, 0))
        exposed = next(s for s in out["sites"] if s["verdict"] == guarded.EXPOSED)
        exposed["witness"] = guarded.encode(1, 1).hex()
        prevented = next(s for s in out["sites"] if s["verdict"] == guarded.PREVENTED)
        prevented["verdict"] = "unknown"
        self.assertEqual(oracle.check_guarded(out, 4)[:2], (guarded.PROGRAMS, 2))

    def test_registry_rejects_a_wrong_verdict_and_witness_count(self):
        expectations = {"app": {f"t{i}": v for i, v in enumerate(
            ["exposed"] * 14 + ["unsatisfiable"] * 17 + ["prevented"] * 9)}}
        sites = [{"app": "app", "tag": tag, "verdict": verdict}
                 for tag, verdict in expectations["app"].items()]
        out = {"expectations": expectations, "sites": sites, "distinct_witnesses": 14}
        self.assertEqual(oracle.check_registry(out)[:2], (40, 0))
        sites[0]["verdict"] = "prevented"
        out["distinct_witnesses"] = 13
        self.assertEqual(oracle.check_registry(out)[:2], (40, 2))

    def test_crashed_pass_fails_every_site(self):
        self.assertEqual(oracle.crashed(40, "boom")[:2], (40, 40))


class SmokeTest(unittest.TestCase):
    """One checked pass of each workload, through the real pass interpreter."""

    def _pass(self, workload, *extra):
        env = dict(os.environ, PYTHONPATH=os.path.join(run.ROOT, "src"))
        command = [sys.executable, os.path.join(HERE, "passrun.py"), "--workload", workload,
                   "--seed", "7", "--launched", repr(time.monotonic()), *extra]
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=170)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        return json.loads(done.stdout.strip().splitlines()[-1])

    def test_registry_cold(self):
        attempted, failed, problems = oracle.check_registry(self._pass("registry-cold"))
        self.assertEqual((attempted, failed), (40, 0), problems)

    def test_registry_warm_process_traced(self):
        store = tempfile.mkdtemp(dir=HERE, prefix="_smoke-")
        try:
            self._pass("registry-warm-process", "--store", store)
            out = self._pass("registry-warm-process", "--store", store,
                             "--trace-file", os.path.join(store, "spans.jsonl"))
        finally:
            shutil.rmtree(store, ignore_errors=True)
        attempted, failed, problems = oracle.check_registry(out)
        self.assertEqual((attempted, failed), (40, 0), problems)
        # Parent-side layers only; every lookup hit the warm store.
        self.assertEqual(out["layers"]["exec.concolic_calls"], 0)
        self.assertGreater(out["layers"]["sched.run_units_s"], 0)
        self.assertGreater(out["layers"]["store.records_loaded"], 0)
        self.assertEqual(out["layers"]["smt.cache_hit_ratio"], 1.0)

    def test_guarded_chains_traced(self):
        with tempfile.TemporaryDirectory(dir=HERE, prefix="_smoke-") as scratch:
            trace = os.path.join(scratch, "spans.jsonl")
            out = self._pass("guarded-chains", "--trace-file", trace)
            self.assertTrue(os.path.getsize(trace) > 0)
        attempted, failed, problems = oracle.check_guarded(out, 7)
        self.assertEqual((attempted, failed), (guarded.PROGRAMS, 0), problems)
        self.assertGreater(out["layers"]["smt.sampler_calls"], 0)


if __name__ == "__main__":
    unittest.main()
