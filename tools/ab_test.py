#!/usr/bin/env python3
"""Fixture test for tools/ab.py: a throwaway git repository whose
benchmark/run.py is a stub that reports fixed metrics, with the working
tree twice as fast as the committed revision on round_ms.p90. The stub
"builds" its speed into build-bench/ only when that directory is missing,
as an incremental build over sources with old timestamps would. For
--micro, a CMake project with no compiler "builds" bench/micro by copying
a stub that prints google-benchmark JSON scaled by the same speed.

Run: python3 tools/ab_test.py
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True  # keep the source tree clean under ctest
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import ab  # noqa: E402

# Stands in for benchmark/run.py: one run, metrics from the speed built
# into the checkout's build-bench/, and lines in $AB_TEST_LOG recording
# each build and the run order.
STUB_RUN_PY = r'''
import argparse, json, os, shutil
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
p = argparse.ArgumentParser()
p.add_argument("--workload")
p.add_argument("--seed", type=int)
p.add_argument("--out")
a = p.parse_args()
binary = os.path.join(ROOT, "build-bench", "speed")
if not os.path.exists(binary):
    os.makedirs(os.path.dirname(binary), exist_ok=True)
    shutil.copy(os.path.join(ROOT, "speed.txt"), binary)
    with open(os.environ["AB_TEST_LOG"], "a") as f:
        f.write("build\n")
with open(binary) as f:
    speed = float(f.read())
with open(os.path.join(ROOT, "metrics.json")) as f:
    names = json.load(f)
with open(os.environ["AB_TEST_LOG"], "a") as f:
    f.write(f"run {speed} {a.workload} {a.seed}\n")
metrics = {n: 1000.0 + a.seed for n in names}
metrics["round_ms.p90"] *= speed
with open(a.out, "w") as f:
    json.dump({"host": {"nproc": 4, "commit": str(speed)},
               "seconds": 20.0, "trace": 0,
               "runs": [{"workload": a.workload, "seed": a.seed,
                         "metrics": metrics}]}, f)
'''


# Stands in for build/bench/micro: google-benchmark JSON (two iteration
# rows and one aggregate row) from the speed copied next to it at build
# time, and a line in $AB_TEST_LOG per run.
STUB_MICRO = r'''#!/usr/bin/env python3
import json, os, sys
HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "speed")) as f:
    speed = float(f.read())
pattern = [a.split("=", 1)[1] for a in sys.argv[1:]
           if a.startswith("--benchmark_filter=")][0]
with open(os.environ["AB_TEST_LOG"], "a") as f:
    f.write(f"micro {speed} {pattern}\n")
print(json.dumps({"context": {}, "benchmarks": [
    {"name": "BM_Fast", "run_type": "iteration",
     "real_time": 2.0 * speed, "time_unit": "ms"},
    {"name": "BM_Same", "run_type": "iteration",
     "real_time": 300.0, "time_unit": "ns"},
    {"name": "BM_Same_mean", "run_type": "aggregate",
     "real_time": 1.0, "time_unit": "ns"}]}))
'''

STUB_CMAKE = r'''cmake_minimum_required(VERSION 3.16)
project(stub NONE)
add_custom_target(micro
  COMMAND ${CMAKE_COMMAND} -E make_directory ${CMAKE_BINARY_DIR}/bench
  COMMAND ${CMAKE_COMMAND} -E copy ${CMAKE_SOURCE_DIR}/micro.py
          ${CMAKE_BINARY_DIR}/bench/micro
  COMMAND ${CMAKE_COMMAND} -E copy ${CMAKE_SOURCE_DIR}/speed.txt
          ${CMAKE_BINARY_DIR}/bench/speed)
'''


def git(repo, *args):
    subprocess.run(["git", "-C", repo, "-c", "user.name=ab", "-c",
                    "user.email=ab@example.com"] + list(args), check=True,
                   capture_output=True)


class AbTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.repo = os.path.join(self.dir.name, "repo")
        os.makedirs(os.path.join(self.repo, "benchmark"))
        with open(os.path.join(ab.ROOT, "BENCHMARK.json")) as f:
            names = [m["name"] for m in json.load(f)["end_to_end"]]
        self.write("benchmark/run.py", STUB_RUN_PY)
        self.write("metrics.json", json.dumps(names))
        self.write("speed.txt", "1.0")
        self.write(".gitignore", "ignored.txt\n")
        git(self.repo, "init", "-q")
        git(self.repo, "add", "-A")
        git(self.repo, "commit", "-q", "-m", "base")
        # The working tree: an uncommitted edit, an untracked file and an
        # ignored one.
        self.write("speed.txt", "0.5")
        self.write("untracked.txt", "new")
        self.write("ignored.txt", "build output")
        self.log = os.path.join(self.dir.name, "order.log")
        self.scratch = os.path.join(self.dir.name, "scratch")

    def tearDown(self):
        self.dir.cleanup()

    def write(self, rel, text):
        with open(os.path.join(self.repo, rel), "w") as f:
            f.write(text)

    def run_ab(self, pairs, *extra):
        env = dict(os.environ, AB_TEST_LOG=self.log)
        return subprocess.run(
            [sys.executable, os.path.join(HERE, "ab.py"), "HEAD", "--repo",
             self.repo, "--scratch", self.scratch, "--pairs", str(pairs)]
            + list(extra), env=env, capture_output=True, text=True)

    def logged(self, kind):
        """The logged lines of `kind` ("build" or "run"), split, in order."""
        with open(self.log) as f:
            return [line.split()[1:] for line in f
                    if line.split()[0] == kind]

    def test_pairs_alternate_and_compare_reports_the_gain(self):
        done = self.run_ab(10)
        self.assertEqual(done.returncode, 0, done.stderr)
        expected = []
        for pair in range(1, 11):
            sides = ["1.0", "0.5"] if pair % 2 == 1 else ["0.5", "1.0"]
            expected += [[s, "population-1500", str(pair)] for s in sides]
        self.assertEqual(self.logged("run"), expected)
        self.assertEqual(len(self.logged("build")), 2)

        for side, speed in (("base", "1.0"), ("change", "0.5")):
            with open(os.path.join(self.scratch, f"{side}.json")) as f:
                merged = json.load(f)
            self.assertEqual(merged["trace"], 0)
            self.assertEqual(merged["host"]["commit"], speed)
            self.assertEqual([r["seed"] for r in merged["runs"]],
                             list(range(1, 11)))

        self.assertIn("population-1500 round_ms.p90 improved", done.stdout)
        self.assertIn("population-1500 round_ms.p50 unchanged", done.stdout)
        self.assertNotIn("regressed", done.stdout.replace('"', " "))

    def test_micro_pairs_alternate_and_report_ratios_and_wins(self):
        self.write("CMakeLists.txt", STUB_CMAKE)
        self.write("micro.py", STUB_MICRO)
        os.chmod(os.path.join(self.repo, "micro.py"), 0o755)
        git(self.repo, "add", "CMakeLists.txt", "micro.py")
        git(self.repo, "commit", "-q", "-m", "micro")
        done = self.run_ab(3, "--micro", "BM_.*")
        self.assertEqual(done.returncode, 0, done.stderr)
        self.assertEqual(self.logged("micro"),
                         [["1.0", "BM_.*"], ["0.5", "BM_.*"],
                          ["0.5", "BM_.*"], ["1.0", "BM_.*"],
                          ["1.0", "BM_.*"], ["0.5", "BM_.*"]])
        rows = {line.split()[0]: line.split()[1:]
                for line in done.stdout.splitlines()
                if not line.startswith("#")}
        self.assertEqual(rows, {
            "BM_Fast": ["2e+06", "1e+06", "0.500", "0.500", "0.500", "3/3"],
            "BM_Same": ["300", "300", "1.000", "1.000", "1.000", "0/3"]})

    def test_worktree_export_takes_untracked_files_but_not_ignored_ones(self):
        done = self.run_ab(1)
        self.assertEqual(done.returncode, 0, done.stderr)
        change = os.path.join(self.scratch, "change")
        self.assertTrue(os.path.exists(os.path.join(change, "untracked.txt")))
        self.assertFalse(os.path.exists(os.path.join(change, "ignored.txt")))
        self.assertFalse(os.path.exists(
            os.path.join(self.scratch, "base", "untracked.txt")))

    def test_reexport_keeps_the_benchmark_build_only_for_same_sources(self):
        side = os.path.join(self.dir.name, "side")
        ab.export_rev(self.repo, "HEAD", side)
        os.makedirs(os.path.join(side, ab.KEEP))
        os.makedirs(os.path.join(side, "src"))
        open(os.path.join(side, "stale.txt"), "w").close()
        ab.export_rev(self.repo, "HEAD", side)
        self.assertEqual(sorted(os.listdir(side)),
                         sorted([".gitignore", ab.STAMP, ab.KEEP,
                                 "benchmark", "metrics.json", "speed.txt"]))
        ab.export_worktree(self.repo, side)  # other sources
        self.assertNotIn(ab.KEEP, os.listdir(side))

    def test_rerun_on_other_sources_rebuilds_and_measures_them(self):
        self.assertEqual(self.run_ab(1).returncode, 0)
        self.assertEqual(self.run_ab(1).returncode, 0)
        self.assertEqual(len(self.logged("build")), 2)  # both builds kept
        # A new HEAD (committed, so older than the kept builds) and another
        # working-tree edit: both sides must rebuild and measure the new
        # sources rather than the previous binaries.
        self.write("speed.txt", "0.25")
        git(self.repo, "commit", "-q", "-am", "faster")
        self.write("speed.txt", "0.125")
        done = self.run_ab(1)
        self.assertEqual(done.returncode, 0, done.stderr)
        self.assertEqual(len(self.logged("build")), 4)
        self.assertEqual([run[0] for run in self.logged("run")[-2:]],
                         ["0.25", "0.125"])


if __name__ == "__main__":
    unittest.main()
