"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -t perfbench

They run every workload at tiny size, so they take a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

import run
import spans

sys.path.insert(0, str(run.SRC))

import fishburn  # noqa: E402
import fishburn.cli  # noqa: E402
import fishburn.enumeration  # noqa: E402
import fishburn.verify  # noqa: E402

import worker  # noqa: E402

WORKLOADS = ("verify-all", "count-hard", "list-fishburn")


def contract() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def module_attributes() -> dict:
    return {
        (module.__name__, attr): value
        for module in (fishburn, fishburn.cli, fishburn.enumeration, fishburn.verify)
        for attr, value in vars(module).items()
    }


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        spec = contract()
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            for name in WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    result, record = run.run(name, seed=3, seconds=0, trace=trace, size="tiny")
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    got = {m: v["unit"] for m, v in result["metrics"].items()}
                    self.assertEqual(got, wanted)
                    self.assertEqual(record["error_rate"], 0)

    def test_layers_on_each_workload(self):
        metrics = {
            name: {m: v["value"] for m, v in
                   run.run(name, seed=3, seconds=0, trace=True, size="tiny")[0]["metrics"].items()}
            for name in WORKLOADS
        }
        self.assertEqual(metrics["list-fishburn"]["patterns.anchored_checks"], 0)
        self.assertEqual(metrics["list-fishburn"]["enumeration.members"], 53)
        self.assertGreater(metrics["count-hard"]["patterns.anchored_checks"], 0)
        self.assertEqual(metrics["count-hard"]["enumeration.calls"], 3)
        self.assertEqual(metrics["verify-all"]["cli.output_bytes"],
                         metrics["verify-all"]["verify.output_bytes"])
        self.assertGreater(metrics["verify-all"]["verify.records"], 0)


class CorrectnessTest(unittest.TestCase):
    def test_corrupted_digest_counts_as_failure(self):
        for name in ("verify-all", "list-fishburn"):
            with mock.patch.dict(run.EXPECTED_SHA256, {(name, "tiny"): "0" * 64}):
                result, record = run.run(name, seed=1, seconds=0, trace=False, size="tiny")
            self.assertFalse(result["correct"])
            self.assertGreater(record["error_rate"], 0)
            # The output itself is sound: right line count, in order.
            self.assertEqual(set(record["check_failures"]), {"sha256"})

    def test_corrupted_closed_form_counts_as_failure(self):
        group, form, n_full, n_tiny, one_position = run.COUNT_HARD[0]
        wrong = ((group, lambda n: form(n) + 1, n_full, n_tiny, one_position),) + run.COUNT_HARD[1:]
        with mock.patch.object(run, "COUNT_HARD", wrong):
            result, record = run.run("count-hard", seed=1, seconds=0, trace=False, size="tiny")
        self.assertEqual(result["failed"], 1)
        self.assertGreater(record["error_rate"], 0)
        self.assertEqual(record["check_failures"], {"count": 1})

    def test_list_mismatch_says_why(self):
        workload = run.Workload("list-fishburn", 1, "tiny")
        workload.n = 2
        self.assertEqual(workload.check(0, b"1 2\n2 1\n"), (1, 1))
        self.assertEqual(workload.failures, {"sha256": 1})
        self.assertEqual(workload.check(1, b"2 1\n1 2\n1 2\n"), (1, 1))
        self.assertEqual(workload.failures,
                         {"sha256": 2, "exit": 1, "line_count": 1, "order": 1})

    def test_closed_forms(self):
        self.assertEqual([run.pell_q(n) for n in range(6)], [1, 1, 2, 4, 9, 21])
        self.assertEqual(run.quad_a(12), 112)
        self.assertEqual(run.pell_q(11), 4060)


class HangingWorkload(run.Workload):
    """A workload whose operation never ends."""

    def __init__(self, *args):
        super().__init__(*args)
        self.argv = [sys.executable, "-c", "import time; time.sleep(60)"]


class DeadlineTest(unittest.TestCase):
    def test_hung_operation_is_a_failure_with_a_result_line(self):
        for trace in ("0", "1"):
            with self.subTest(trace=trace), \
                    mock.patch.object(run, "Workload", HangingWorkload), \
                    mock.patch.object(run, "DEADLINE_S", 2.5), \
                    contextlib.redirect_stdout(io.StringIO()) as stdout:
                code = run.main(["--workload", "verify-all", "--seed", "1", "--seconds", "1",
                                 "--trace", trace])
            self.assertEqual(code, 0)
            result = json.loads(stdout.getvalue().splitlines()[-1])
            self.assertFalse(result["correct"])
            self.assertGreaterEqual(result["failed"], 1)


class TracingTest(unittest.TestCase):
    def traced_cli(self, argv: list[str]) -> dict:
        run.RUNS.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.RUNS) as tmp:
            path = os.path.join(tmp, "spans.json")
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(worker.main(["--spans", path, "cli", *argv]), 0)
            with open(path) as fh:
                return json.load(fh)

    def test_names_restored_after_traced_run(self):
        before = module_attributes()
        self.traced_cli(["verify", "all", "--max-n", "3", "--format", "delimited"])
        self.assertEqual(module_attributes(), before)

    def test_names_restored_when_traced_block_raises(self):
        before = module_attributes()
        with self.assertRaises(RuntimeError):
            with spans.traced(spans.Tracer()):
                self.assertIsNot(fishburn.enumeration.occurs_ending_at,
                                 before[("fishburn.enumeration", "occurs_ending_at")])
                raise RuntimeError("boom")
        self.assertEqual(module_attributes(), before)

    def test_self_times_add_up_to_covered_time(self):
        trace = self.traced_cli(["verify", "all", "--max-n", "4", "--format", "delimited"])
        m = spans.layer_metrics(trace)
        total_self = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
        self.assertAlmostEqual(total_self, m["covered_s"], delta=1e-9)
        self.assertAlmostEqual(m["cli.busy_s"], m["covered_s"], delta=1e-9)
        self.assertGreater(m["patterns.anchored_checks"], 0)

    def test_nested_spans_and_leaf_calls(self):
        ticks = iter(range(100))
        tracer = spans.Tracer(clock=lambda: float(next(ticks)))
        leaf = tracer.leaf_wrapper("patterns", lambda: None)
        inner = tracer.span_wrapper("enumeration.count", "enumeration", lambda: leaf() or 5,
                                    spans._members)
        outer = tracer.span_wrapper("verify.suite.table", "verify", lambda: (inner(), leaf()))
        outer()
        m = spans.layer_metrics(tracer.as_dict())
        # Clock ticks: outer 0..7 holds inner 1..4 (with a leaf call 2..3)
        # and then a leaf call 5..6 of its own.
        self.assertEqual(m["patterns.anchored_checks"], 2)
        self.assertEqual(m["patterns.check_s"], 2.0)
        self.assertEqual(m["enumeration.self_s"], 2.0)
        self.assertEqual(m["verify.self_s"], 3.0)
        self.assertEqual(m["verify.suite_s.table"], 7.0)
        self.assertEqual(m["enumeration.members"], 5)
        self.assertEqual(m["covered_s"], 7.0)


class RecordTest(unittest.TestCase):
    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(run.summarize([1.0] * 10)["tail"])
        self.assertEqual(run.summarize(list(range(20)))["tail"]["percentile"], 50)
        tail = run.summarize([float(i) for i in range(100)])["tail"]
        self.assertEqual(tail, {"percentile": 90, "value": 89.0})

    def test_refuses_to_run_without_the_source_tree(self):
        run.RUNS.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.RUNS) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("runs", "__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "count-hard", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, timeout=60,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, b"")


if __name__ == "__main__":
    unittest.main()
