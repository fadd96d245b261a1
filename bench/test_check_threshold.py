#!/usr/bin/env python3
"""Unit tests for the per-benchmark threshold table of check_threshold.py.

Run directly or via ctest (the bench_threshold_unit test):

    python3 bench/test_check_threshold.py
"""
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_threshold as ct


class ThresholdForTest(unittest.TestCase):
    def test_default_ratio_for_slow_benches(self):
        self.assertEqual(ct.threshold_for("suite/BM_Big/512", 50_000.0, 1.5),
                         1.5)
        self.assertEqual(
            ct.threshold_for("suite/BM_Big/512", ct.SUB_MICROSECOND_NS, 1.5),
            1.5)

    def test_sub_microsecond_benches_are_widened(self):
        self.assertEqual(ct.threshold_for("suite/BM_Tiny/8", 73.0, 1.5),
                         1.5 * ct.SUB_MICROSECOND_FACTOR)
        self.assertEqual(
            ct.threshold_for("suite/BM_Tiny/8",
                             ct.SUB_MICROSECOND_NS - 1.0, 2.0),
            2.0 * ct.SUB_MICROSECOND_FACTOR)

    def test_exact_override_wins_over_both_rules(self):
        key = "suite/BM_Pinned"
        ct.PER_BENCH_MAX_RATIO[key] = 4.0
        try:
            # Overrides beat the sub-microsecond widening...
            self.assertEqual(ct.threshold_for(key, 10.0, 1.5), 4.0)
            # ...and the base ratio.
            self.assertEqual(ct.threshold_for(key, 1e6, 1.5), 4.0)
        finally:
            del ct.PER_BENCH_MAX_RATIO[key]

    def test_committed_overrides_are_sane(self):
        for key, ratio in ct.PER_BENCH_MAX_RATIO.items():
            self.assertGreater(ratio, 1.0, key)
            self.assertIn("/", key)


class LoadTest(unittest.TestCase):
    @staticmethod
    def _write(payload):
        handle = tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False)
        json.dump(payload, handle)
        handle.close()
        return handle.name

    def _load(self, payload):
        path = self._write(payload)
        try:
            return ct.load(path)
        finally:
            os.unlink(path)

    def test_accepts_micro_and_macro_schemas(self):
        for schema in ct.ACCEPTED_SCHEMAS:
            times = self._load({
                "schema": schema,
                "benchmarks": {
                    "suite": {"benchmarks": [
                        {"name": "BM_A/8", "cpu_time": 2.0,
                         "time_unit": "us"},
                        {"name": "BM_A_mean", "cpu_time": 2.0,
                         "run_type": "aggregate"},
                    ]},
                },
            })
            self.assertEqual(times, {"suite/BM_A/8": 2000.0})

    def test_repeated_benchmark_is_gated_on_its_median(self):
        rows = [{"name": "BM_R/2", "run_name": "BM_R/2", "cpu_time": t,
                 "time_unit": "ns", "run_type": "iteration"}
                for t in (300.0, 900.0, 310.0)]
        rows += [{"name": "BM_R/2_" + name, "run_name": "BM_R/2",
                  "cpu_time": t, "time_unit": "ns", "run_type": "aggregate",
                  "aggregate_name": name}
                 for name, t in (("mean", 503.3), ("median", 310.0),
                                 ("stddev", 343.5))]
        times = self._load({"schema": ct.ACCEPTED_SCHEMAS[0],
                            "benchmarks": {"suite": {"benchmarks": rows}}})
        self.assertEqual(times, {"suite/BM_R/2": 310.0})

    def test_repeats_suffix_is_dropped_from_the_key(self):
        # Google Benchmark renames a family given Repetitions(5) to
        # ".../repeats:5"; its median must still match a baseline row
        # recorded without repetitions.
        rows = [{"name": "BM_R/2/repeats:5", "run_name": "BM_R/2/repeats:5",
                 "cpu_time": t, "time_unit": "ns", "run_type": "iteration"}
                for t in (300.0, 900.0, 310.0)]
        rows.append({"name": "BM_R/2/repeats:5_median",
                     "run_name": "BM_R/2/repeats:5", "cpu_time": 310.0,
                     "time_unit": "ns", "run_type": "aggregate",
                     "aggregate_name": "median"})
        rows.append({"name": "BM_S/repeats:12x", "cpu_time": 5.0,
                     "time_unit": "ns"})
        times = self._load({"schema": ct.ACCEPTED_SCHEMAS[0],
                            "benchmarks": {"suite": {"benchmarks": rows}}})
        self.assertEqual(times, {"suite/BM_R/2": 310.0,
                                 "suite/BM_S/repeats:12x": 5.0})
        baseline = self._load({"schema": ct.ACCEPTED_SCHEMAS[0],
                               "benchmarks": {"suite": {"benchmarks": [
                                   {"name": "BM_R/2", "cpu_time": 300.0,
                                    "time_unit": "ns"}]}}})
        self.assertEqual(baseline.keys() & times.keys(), {"suite/BM_R/2"})

    def test_rejects_unknown_schema(self):
        path = self._write({"schema": "nonsense/v9", "benchmarks": {}})
        try:
            with self.assertRaises(SystemExit):
                ct.load(path)
        finally:
            os.unlink(path)


if __name__ == "__main__":
    unittest.main()
