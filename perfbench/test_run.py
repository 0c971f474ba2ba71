#!/usr/bin/env python3
"""Tests of the benchmark's own logic (no build, no timing).

    python3 perfbench/test_run.py
"""

import json
import os
import re
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


class TailRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        values = list(range(1, 101))  # 1..100, shuffled order must not matter
        values.reverse()
        value, pct, n = run.tail(values)
        self.assertEqual(n, 100)
        self.assertEqual(value, 90)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertAlmostEqual(pct, 90.0)

    def test_percentile_rises_with_samples(self):
        value, pct, n = run.tail([float(i) for i in range(1000)])
        self.assertEqual((value, n), (989.0, 1000))
        self.assertAlmostEqual(pct, 99.0)

    def test_eleven_samples_is_the_minimum(self):
        value, pct, n = run.tail(list(range(11)))
        self.assertEqual((value, n), (0, 11))
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_too_few_samples_reports_the_maximum(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))
        with self.assertRaises(ValueError):
            run.tail([])


class GoldenComparison(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.golden = run.load_golden(os.path.join(run.ROOT, run.GOLDEN))

    def test_golden_rows_pass(self):
        rows = list(self.golden.values())
        attempted, failures = run.compare_rows(rows, self.golden)
        self.assertEqual(attempted, 306)
        self.assertEqual(failures, [])

    def test_one_byte_change_fails(self):
        row = self.golden["lion9"]
        # Change one digit of the last column.
        changed = row[:-1] + ("1" if row[-1] != "1" else "2")
        self.assertEqual(len(changed), len(row))
        attempted, failures = run.compare_rows([self.golden["lion"], changed],
                                               self.golden)
        self.assertEqual(attempted, 2)
        self.assertEqual(failures, ["lion9: row differs from golden"])

    def test_failed_status_and_unknown_name_fail(self):
        row = self.golden["traffic"].replace(",ok,", ",timeout,", 1)
        _, failures = run.compare_rows([row, "nosuchjob,ok,1"], self.golden)
        self.assertEqual(failures, ["traffic: row differs from golden (status timeout)",
                                    "nosuchjob: no golden row"])

    def test_quality_sums_distinct_rows(self):
        rows = [self.golden["lion"], self.golden["lion"], self.golden["lion9"]]
        sums = run.quality(rows)
        self.assertEqual(sums, {"gate_count": 43 + 118, "state_vars": 3 + 4,
                                "cover_gap": 0})


class ProgressLines(unittest.TestCase):
    """Job times come from seance_cli's --progress lines."""

    def test_every_line_of_interleaved_workers_counts(self):
        text = ("[   1/ 128] lion                         ok (1.4 ms)\n"
                "[   1/ 128] hard-8x4-0003                ok (12.0 ms)\n"
                "[   2/ 128] lion9                        timeout (120000.3 ms)\n")
        self.assertEqual(run.PROGRESS_MS.findall(text), ["1.4", "12.0", "120000.3"])

    def test_tied_rounded_times_give_an_interpolated_median(self):
        # The median falls in the 2.1 group [2.05, 2.15): 2 samples lie
        # below the group and 5 in it, so it sits 2/5 of the way in.
        times = [2.0, 2.0, 2.1, 2.1, 2.1, 2.1, 2.1, 2.2]
        runs = [{"setup_s": 0.1, "wall_s": 1.0, "peak_rss_mb": 1.0,
                 "latency_ms": times, "rows": []}]
        metrics, _ = run.end_to_end(runs)
        self.assertAlmostEqual(metrics["job_p50_ms"], 2.05 + 0.1 * (4 - 2) / 5)


class NamesMatchBenchmarkJson(unittest.TestCase):
    """The metrics the benchmark computes are exactly the ones declared."""

    def test_workloads(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            declared = {w["name"] for w in json.load(f)["workloads"]}
        self.assertEqual(declared, set(run.WORKLOADS))

    def test_end_to_end_metrics(self):
        golden = run.load_golden(os.path.join(run.ROOT, run.GOLDEN))
        runs = [{"setup_s": 0.1, "wall_s": 1.0, "peak_rss_mb": 12.5,
                 "latency_ms": [float(i) for i in range(1, 15)], "rows": [golden["lion"]]},
                {"setup_s": 0.3, "wall_s": 2.0, "peak_rss_mb": 13.0,
                 "latency_ms": [float(i) for i in range(15, 30)], "rows": [golden["lion9"]]}]
        metrics, _ = run.end_to_end(runs)
        self.assertEqual(set(metrics), set(run.metric_units("end_to_end")))
        self.assertEqual(metrics["jobs_per_s"], 29 / 3.0)
        self.assertAlmostEqual(metrics["job_p50_ms"], 15.0)
        self.assertTrue(all(v != 0 for v in metrics.values()))

    def test_per_layer_metrics(self):
        with open(os.path.join(run.HERE, "harness.cpp"), encoding="utf-8") as f:
            source = f.read()
        measured = set(re.findall(r'layers\["([a-z_]+\.[a-z0-9_]+)"\]', source))
        measured.discard("search.tt_hits")  # folded into search.tt_hit_ratio
        measured.update(run.DERIVED_LAYERS)
        self.assertEqual(measured, set(run.metric_units("per_layer")))

    def test_reported_only_metrics_are_not_declared(self):
        declared = set(run.metric_units("end_to_end")) | set(run.metric_units("per_layer"))
        self.assertFalse(declared & set(run.REPORTED_ONLY))


if __name__ == "__main__":
    unittest.main()
