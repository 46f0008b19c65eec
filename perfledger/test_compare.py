#!/usr/bin/env python3
"""Tests for compare.py on synthetic run sets.

    python3 perfledger/test_compare.py
"""
import io
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

BENCH = {"end_to_end": [
    {"name": "reports_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "verdict_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
]}


def runs(values, correct=True, layer=None):
    """{"w": {pair: result}} with one metric series per name."""
    out = {}
    for name, series in values.items():
        for k, v in enumerate(series):
            r = out.setdefault(k, {"correct": correct, "attempted": 10,
                                   "failed": 0, "metrics": {}})
            r["metrics"][name] = {"value": v, "unit": "x"}
            if layer is not None:
                r["metrics"]["stage.replay_mean_us"] = {"value": layer, "unit": "us"}
    return {"w": out}


def rows(parent, change):
    buf = io.StringIO()
    code = compare.compare(parent, change, BENCH, buf)
    table = {}
    for line in buf.getvalue().splitlines()[1:]:
        cols = line.split()
        table[cols[1]] = cols[-1]
    return code, table


class CompareTest(unittest.TestCase):
    steady = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_clear_gain(self):
        code, t = rows(runs({"reports_per_s": self.steady}),
                       runs({"reports_per_s": [v * 1.15 for v in self.steady]}))
        self.assertEqual(t["reports_per_s"], "gain")
        self.assertEqual(code, 0)

    def test_gain_needs_ten_pairs(self):
        code, t = rows(runs({"reports_per_s": self.steady[:6]}),
                       runs({"reports_per_s": [v * 1.15 for v in self.steady[:6]]}))
        self.assertEqual(t["reports_per_s"], "same")

    def test_gain_needs_nine_of_ten_wins(self):
        change = [v * 1.15 for v in self.steady]
        change[0] = change[1] = 90  # two lost pairs
        _, t = rows(runs({"reports_per_s": self.steady}),
                    runs({"reports_per_s": change}))
        self.assertNotEqual(t["reports_per_s"], "gain")

    def test_regression_beyond_bound_fails(self):
        code, t = rows(runs({"verdict_p50_ms": self.steady}),
                       runs({"verdict_p50_ms": [v * 1.3 for v in self.steady]}))
        self.assertEqual(t["verdict_p50_ms"], "regression")
        self.assertEqual(code, 1)

    def test_worse_within_bound_is_same(self):
        code, t = rows(runs({"verdict_p50_ms": self.steady}),
                       runs({"verdict_p50_ms": [v * 1.05 for v in self.steady]}))
        self.assertEqual(t["verdict_p50_ms"], "same")
        self.assertEqual(code, 0)

    def test_wide_spread_is_unresolved(self):
        noisy = [60, 140, 70, 130, 100, 65, 135, 75, 125, 100]
        code, t = rows(runs({"reports_per_s": noisy}),
                       runs({"reports_per_s": noisy[::-1]}))
        self.assertEqual(t["reports_per_s"], "unresolved")
        self.assertEqual(code, 0)

    def test_wide_spread_resolved_when_change_dominates(self):
        noisy = [60, 140, 70, 130, 100, 65, 135, 75, 125, 100]
        _, t = rows(runs({"reports_per_s": noisy}),
                    runs({"reports_per_s": [v + 200 for v in noisy]}))
        self.assertEqual(t["reports_per_s"], "gain")

    def test_layer_metrics_have_no_verdict(self):
        _, t = rows(runs({"reports_per_s": self.steady}, layer=50),
                    runs({"reports_per_s": self.steady}, layer=40))
        self.assertEqual(t["stage.replay_mean_us"], "layer")

    def test_incorrect_run_fails_the_workload(self):
        code, t = rows(runs({"reports_per_s": self.steady}),
                       runs({"reports_per_s": self.steady}, correct=False))
        self.assertEqual(t["*"], "incorrect")
        self.assertEqual(code, 1)

    def test_record_wraps_the_last_line(self):
        out = io.StringIO()
        compare.record("fleet-live", "3", io.StringIO(
            'cpus: service 2\n{"correct": true, "attempted": 1, "failed": 0, "metrics": {}}\n'), out)
        self.assertIn('"workload": "fleet-live"', out.getvalue())
        self.assertIn('"pair": 3', out.getvalue())


if __name__ == "__main__":
    unittest.main()
