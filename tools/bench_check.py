#!/usr/bin/env python3
"""Compare a fresh google-benchmark JSON run against a committed baseline.

Usage: bench_check.py BASELINE.json CURRENT.json [--suite NAME]
                      [--tolerance FRACTION]

Every benchmark present in the baseline must exist in the current run and
its real_time must not exceed baseline * (1 + tolerance). When a file holds
repetitions, the benchmark's time is its median aggregate row. Tolerances are
deliberately generous: the gate exists to catch gross regressions — an
accidental O(N^2) reintroduction, a dropped cache — not single-digit-percent
noise, which shared CI runners cannot resolve.

Each suite has its own noise threshold because the suites measure different
things: the kernel suite times multi-millisecond compute loops (tight),
the net suite times sub-microsecond codec paths (noisier per-run), and the
scale suite runs allocation-heavy clustering (noisiest). Resolution order:
--tolerance flag, HACCS_BENCH_TOLERANCE_<SUITE> env, HACCS_BENCH_TOLERANCE
env, then the per-suite default.

Benchmarks only present in the current run (newly added) are reported but
never fail the check; commit the regenerated baseline alongside the change
that added them.
"""
import argparse
import json
import os
import sys

# Per-suite default noise thresholds (fraction of baseline; 0.6 = fail
# above 1.6x).
SUITE_TOLERANCE = {
    "kernels": 0.6,
    "net": 0.8,
    "scale": 1.0,
}
DEFAULT_TOLERANCE = 0.6


def resolve_tolerance(suite, flag_value):
    if flag_value is not None:
        return flag_value
    if suite:
        env = os.environ.get(f"HACCS_BENCH_TOLERANCE_{suite.upper()}")
        if env is not None:
            return float(env)
    env = os.environ.get("HACCS_BENCH_TOLERANCE")
    if env is not None:
        return float(env)
    return SUITE_TOLERANCE.get(suite, DEFAULT_TOLERANCE)


def load_benchmarks(path):
    """Map benchmark name -> real_time.

    A single run has one iteration row per benchmark. A run with
    --benchmark_repetitions=N has N iteration rows per benchmark plus
    aggregate rows (mean, median, stddev, cv); there the median aggregate
    is the benchmark's time, keyed by its run_name so it matches the
    single-run baseline's name.
    """
    with open(path) as fh:
        doc = json.load(fh)
    iterations = {}
    medians = {}
    for bench in doc.get("benchmarks", []):
        name = bench.get("run_name", bench["name"])
        if bench.get("run_type") == "aggregate":
            if bench.get("aggregate_name") == "median":
                medians[name] = float(bench["real_time"])
            continue
        iterations.setdefault(name, float(bench["real_time"]))
    return {**iterations, **medians}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--suite",
        default=None,
        help="suite name (kernels|net|scale) selecting the default noise "
        "threshold and the HACCS_BENCH_TOLERANCE_<SUITE> env override",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="allowed slowdown as a fraction of baseline; overrides the "
        "suite default and every env var",
    )
    args = parser.parse_args()
    tolerance = resolve_tolerance(args.suite, args.tolerance)

    baseline = load_benchmarks(args.baseline)
    current = load_benchmarks(args.current)
    if not baseline:
        print(f"bench_check: no benchmarks in baseline {args.baseline}",
              file=sys.stderr)
        return 2

    failures = []
    for name, base_time in sorted(baseline.items()):
        if name not in current:
            failures.append(f"{name}: missing from current run")
            continue
        cur_time = current[name]
        ratio = cur_time / base_time if base_time > 0 else float("inf")
        verdict = "ok"
        if ratio > 1.0 + tolerance:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: {cur_time:.0f} vs baseline {base_time:.0f} "
                f"({ratio:.2f}x > {1.0 + tolerance:.2f}x allowed)")
        print(f"  {name}: {ratio:.2f}x baseline [{verdict}]")

    for name in sorted(set(current) - set(baseline)):
        print(f"  {name}: new benchmark (not in baseline; not gated)")

    suite_tag = f" [{args.suite}]" if args.suite else ""
    if failures:
        print(f"bench_check{suite_tag}: {len(failures)} failure(s) vs "
              f"{args.baseline}:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"bench_check{suite_tag}: {len(baseline)} benchmark(s) within "
          f"{1.0 + tolerance:.2f}x of {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
