"""Unit tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402

RUN_SUMMARY = """\
scheduler:        paper-S(eps=0.500000)
jobs:             3017
completed:        621
profit:           12440.2 / 111825 (11.1247%)
busy proc-time:   9851.18
decisions:        14756
fault transitions: 152
deadline misses:  2396
wrote 11948 events to out/e.jsonl
wrote 7 checkpoint snapshots to out/c.ckpt
"""


def sweep_report(ok=True, cells=1):
    header = {"schema": "dagsched.sweep/1", "kind": "header", "cells": cells,
              "threads": 2}
    cell = {"kind": "cell", "id": "s_event_x_none", "scheduler": "s",
            "engine": "event", "ok": ok,
            "metrics": {"profit": 23171.692634558938, "completed": 1092,
                        "decisions": 24868}}
    return "\n".join(json.dumps(r) for r in (header, cell)) + "\n"


class BestOfK(unittest.TestCase):
    def test_median_of_group_minima(self):
        # Groups [5, 1, 9] [4, 8, 2] [7, 3, 6] have minima 1, 2, 3.
        self.assertEqual(harness.best_of_k([5, 1, 9, 4, 8, 2, 7, 3, 6], 3), 2)

    def test_short_tail_joins_the_groups(self):
        # Ten values, k = 4: two groups of five, minima 1 and 6.
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        self.assertEqual(harness.best_of_k(values, 4), 3.5)

    def test_fewer_than_k_is_one_group(self):
        self.assertEqual(harness.best_of_k([0.3, 0.2, 0.25], 10), 0.2)

    def test_rejects_empty_and_bad_k(self):
        with self.assertRaises(ValueError):
            harness.best_of_k([], 3)
        with self.assertRaises(ValueError):
            harness.best_of_k([1.0], 0)


class QuartileRule(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [1.0, 1.1, 0.9, 1.2, 1.05, 0.95, 1.3, 1.0, 0.98, 1.02]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(harness.quartile_spread(values),
                               (q3 - q1) / statistics.median(values))

    def test_constant_values_have_no_spread(self):
        self.assertEqual(harness.quartile_spread([2.0] * 10), 0.0)

    def test_needs_two_values(self):
        with self.assertRaises(ValueError):
            harness.quartile_spread([1.0])

    def test_drift_respects_direction(self):
        self.assertAlmostEqual(harness.relative_drift(1.0, 1.1, "lower"), 0.1)
        self.assertAlmostEqual(harness.relative_drift(1.0, 1.1, "higher"),
                               -0.1)


class SummaryParsing(unittest.TestCase):
    def test_run_summary(self):
        self.assertEqual(harness.parse_run_summary(RUN_SUMMARY), {
            "profit": "12440.2", "completed": 621, "decisions": 14756,
            "events": 11948})

    def test_run_summary_missing_field(self):
        text = RUN_SUMMARY.replace("decisions:", "choices:")
        with self.assertRaises(harness.CheckFailed):
            harness.parse_run_summary(text)

    def test_run_summary_bad_number(self):
        text = RUN_SUMMARY.replace("621", "6x1")
        with self.assertRaises(harness.CheckFailed):
            harness.parse_run_summary(text)

    def test_sweep_report(self):
        cells = harness.parse_sweep_report(sweep_report())
        self.assertEqual(cells, {("s", "event"): {
            "profit_exact": 23171.692634558938, "completed": 1092,
            "decisions": 24868}})

    def test_sweep_report_failed_cell(self):
        with self.assertRaises(harness.CheckFailed):
            harness.parse_sweep_report(sweep_report(ok=False))

    def test_sweep_report_header_mismatch(self):
        with self.assertRaises(harness.CheckFailed):
            harness.parse_sweep_report(sweep_report(cells=2))

    def test_sweep_report_garbage(self):
        with self.assertRaises(harness.CheckFailed):
            harness.parse_sweep_report("{not json\n")


class DigestComparison(unittest.TestCase):
    expected = {"profit": "12440.2", "completed": 621, "decisions": 14756}

    def test_equal_digests_pass(self):
        harness.check_digest(self.expected, dict(self.expected),
                             run.RUN_KEYS, "run")

    def test_mismatch_names_the_field(self):
        actual = dict(self.expected, decisions=14757)
        self.assertEqual(
            harness.digest_mismatches(self.expected, actual, run.RUN_KEYS),
            ["decisions"])
        with self.assertRaisesRegex(harness.CheckFailed, "decisions"):
            harness.check_digest(self.expected, actual, run.RUN_KEYS, "run")

    def test_missing_field_is_a_mismatch(self):
        actual = {"profit": "12440.2", "completed": 621}
        self.assertEqual(
            harness.digest_mismatches(self.expected, actual, run.RUN_KEYS),
            ["decisions"])

    def test_library_sweep_cells_shape(self):
        digest = {"cells": [{"scheduler": "s", "engine": "event",
                             "profit": "23171.7",
                             "profit_exact": 23171.692634558938,
                             "completed": 1092, "decisions": 24868,
                             "failed": False}]}
        self.assertEqual(harness.library_sweep_cells(digest),
                         harness.parse_sweep_report(sweep_report()))

    def test_fnv1a64_reference_vectors(self):
        self.assertEqual(harness.fnv1a64(b""), "cbf29ce484222325")
        self.assertEqual(harness.fnv1a64(b"a"), "af63dc4c8601ec8c")


class ExitCodes(unittest.TestCase):
    def test_expected_code_passes(self):
        harness.check_exit(0, 0)
        harness.check_exit(9, 9)

    def test_wrong_code_fails(self):
        with self.assertRaises(harness.CheckFailed):
            harness.check_exit(0, 9)
        with self.assertRaises(harness.CheckFailed):
            harness.check_exit(-11, 0)


class LayerSum(unittest.TestCase):
    def metrics(self, unattributed):
        metrics = {name: 0.01 for name in run.SELF_TIMES}
        metrics["trace.unattributed_s"] = unattributed
        metrics["trace.wall_s"] = 0.01 * len(run.SELF_TIMES) + 0.002
        return metrics

    def test_sum_matches(self):
        harness.check_layer_sum(self.metrics(0.002), run.SELF_TIMES)

    def test_sum_off(self):
        with self.assertRaises(harness.CheckFailed):
            harness.check_layer_sum(self.metrics(0.004), run.SELF_TIMES)


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_and_units_agree(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            run.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.WORKLOADS))

    def test_every_self_time_is_a_layer_metric(self):
        self.assertLessEqual(set(run.SELF_TIMES), set(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
