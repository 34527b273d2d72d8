#!/usr/bin/env python3
"""Fixture tests for tools/bench_check.py: the single-run and the repeated
google-benchmark JSON shapes.

Run: python3 tools/bench_check_test.py
"""
import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True  # keep the source tree clean under ctest
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_check  # noqa: E402


def iteration(name, real_time, rep=0, reps=1):
    return {"name": name, "run_name": name, "run_type": "iteration",
            "repetitions": reps, "repetition_index": rep, "threads": 1,
            "iterations": 100, "real_time": real_time, "cpu_time": real_time,
            "time_unit": "ns"}


def aggregate(name, kind, real_time, reps):
    return {"name": f"{name}_{kind}", "run_name": name,
            "run_type": "aggregate", "repetitions": reps, "threads": 1,
            "aggregate_name": kind, "aggregate_unit": "time",
            "iterations": reps, "real_time": real_time,
            "cpu_time": real_time, "time_unit": "ns"}


def single_run(times):
    return {"benchmarks": [iteration(n, t) for n, t in times.items()]}


def repeated_run(reps_by_name):
    """Rows in google-benchmark's order: a benchmark's repetitions, then
    its mean / median / stddev / cv aggregates."""
    rows = []
    for name, reps in reps_by_name.items():
        n = len(reps)
        rows += [iteration(name, t, i, n) for i, t in enumerate(reps)]
        ordered = sorted(reps)
        mean = sum(reps) / n
        rows.append(aggregate(name, "mean", mean, n))
        rows.append(aggregate(name, "median", ordered[n // 2], n))
        rows.append(aggregate(name, "stddev", 1.0, n))
        rows.append(aggregate(name, "cv", 0.1, n))
    return {"benchmarks": rows}


class BenchCheckTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, doc):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def check(self, baseline, current, tolerance):
        argv = ["bench_check.py", self.write("base.json", baseline),
                self.write("cur.json", current), "--tolerance",
                str(tolerance)]
        out = io.StringIO()
        old_argv = sys.argv
        sys.argv = argv
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(out):
                return bench_check.main()
        finally:
            sys.argv = old_argv

    def test_single_run_shape_loads_each_iteration_row(self):
        path = self.write("single.json",
                          single_run({"BM_A": 10.0, "BM_B/real_time": 5.0}))
        self.assertEqual(bench_check.load_benchmarks(path),
                         {"BM_A": 10.0, "BM_B/real_time": 5.0})

    def test_repeated_shape_loads_the_median_not_the_last_repetition(self):
        path = self.write("reps.json", repeated_run(
            {"BM_A": [10.0, 12.0, 30.0], "BM_B": [7.0, 1.0, 4.0, 2.0, 3.0]}))
        self.assertEqual(bench_check.load_benchmarks(path),
                         {"BM_A": 12.0, "BM_B": 3.0})

    def test_repeated_run_gates_on_its_median(self):
        baseline = single_run({"BM_A": 10.0})
        # The last repetition (30) alone would trip a 1.5x gate; the median
        # (12) must not.
        self.assertEqual(
            self.check(baseline, repeated_run({"BM_A": [10.0, 12.0, 30.0]}),
                       0.5), 0)
        self.assertEqual(
            self.check(baseline, repeated_run({"BM_A": [20.0, 21.0, 9.0]}),
                       0.5), 1)

    def test_single_run_gate_and_missing_benchmark(self):
        baseline = single_run({"BM_A": 10.0, "BM_B": 10.0})
        self.assertEqual(
            self.check(baseline, single_run({"BM_A": 14.0, "BM_B": 9.0}), 0.5),
            0)
        self.assertEqual(
            self.check(baseline, single_run({"BM_A": 16.0, "BM_B": 9.0}), 0.5),
            1)
        self.assertEqual(self.check(baseline, single_run({"BM_A": 10.0}), 0.5),
                         1)


if __name__ == "__main__":
    unittest.main()
