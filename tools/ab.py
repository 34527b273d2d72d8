#!/usr/bin/env python3
"""Paired before/after benchmark runs: a revision against the working tree.

    tools/ab.py REV                              # population-1500, 10 pairs
    tools/ab.py HEAD~1 --workload paper-femnist --workload hostile-churn
    tools/ab.py main --pairs 12 --scratch /tmp/ab
    tools/ab.py HEAD --micro 'BM_MlpTrainStep|BM_LocalTrainJob'

Exports REV (`git archive`) and the working tree (tracked and untracked,
non-ignored files) into two scratch directories, then alternates
`benchmark/run.py --workload W --seed i` between them: pair i runs seed i
on both sides with run.py's own measurement budget, REV first on odd pairs
and the working tree first on even ones, so drift in host load falls on
both sides alike. Each side's runs are merged into one file in run.py's
--out format (SCRATCH/base.json and SCRATCH/change.json), and this
checkout's `run.py --compare` prints its verdict per metric: improved
needs 9 of 10 pairs better and a median gap larger than the parent's
interquartile range.

With --micro FILTER the pairs run the micro-benchmarks instead:
`build/bench/micro --benchmark_filter=FILTER` of each side, in the same
alternating order. For every benchmark both sides ran, it prints the
medians of both sides' real times, the median and quartiles of the
per-pair ratio change/REV, and the pairs the working tree won (ratio
below 1). It reports and does not judge: the exit code is 0.

Each side builds its own haccs_bench (Release), or with --micro its own
build/bench/micro (Release), in its scratch directory the first time it
runs. Reusing --scratch keeps a side's build only while its sources are the
same: each side records a stamp of what it exported (REV's tree id, or a
hash of the working-tree files), and a changed stamp discards the build. The exported files carry old timestamps (REV's commit time, or
the working tree's own), so an incremental build on top of them could
silently keep the previous binary.

Exit codes: those of run.py --compare (0, or 1 when a metric regressed), or
2 when a side could not be exported, built or run.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "change")
KEEP = "build-bench"  # a side's benchmark build, reused across calls
MICRO_BUILD = "build"  # a side's micro-benchmark build, reused likewise
STAMP = ".ab-sources"  # what the side's sources were exported from


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def clear_sources(dest, stamp):
    """Empties `dest`, creating it if needed, and records `stamp` for the
    sources about to be exported. The benchmark build survives only when
    the previous export carried the same stamp."""
    os.makedirs(dest, exist_ok=True)
    try:
        with open(os.path.join(dest, STAMP)) as f:
            same = f.read() == stamp
    except FileNotFoundError:
        same = False
    for name in os.listdir(dest):
        if name in (KEEP, MICRO_BUILD) and same:
            continue
        path = os.path.join(dest, name)
        if os.path.isdir(path) and not os.path.islink(path):
            shutil.rmtree(path)
        else:
            os.remove(path)
    with open(os.path.join(dest, STAMP), "w") as f:
        f.write(stamp)


def export_rev(repo, rev, dest):
    tree = subprocess.run(["git", "-C", repo, "rev-parse", "--verify",
                           f"{rev}^{{tree}}"], capture_output=True,
                          text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "-C", repo, "archive", "--format=tar",
                              rev], capture_output=True, check=True)
    clear_sources(dest, f"tree {tree}")
    with tempfile.TemporaryFile() as f:
        f.write(archive.stdout)
        f.seek(0)
        with tarfile.open(fileobj=f) as tar:
            tar.extractall(dest)


def export_worktree(repo, dest):
    """Copies every tracked or untracked, non-ignored file as it is on disk
    (deleted tracked files are skipped)."""
    listed = subprocess.run(["git", "-C", repo, "ls-files", "-z", "--cached",
                             "--others", "--exclude-standard"],
                            capture_output=True, check=True)
    files = [rel for rel in sorted(set(listed.stdout.decode().split("\0")))
             if rel and os.path.lexists(os.path.join(repo, rel))]
    digest = hashlib.sha256()
    for rel in files:
        src = os.path.join(repo, rel)
        digest.update(rel.encode() + b"\0")
        if os.path.islink(src):
            digest.update(b"link " + os.readlink(src).encode())
        else:
            with open(src, "rb") as f:
                digest.update(f.read())
        digest.update(b"\0")
    clear_sources(dest, f"worktree {digest.hexdigest()}")
    for rel in files:
        dst = os.path.join(dest, rel)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copy2(os.path.join(repo, rel), dst, follow_symlinks=False)


def pair_order(pair):
    """Sides in run order for 1-based pair `pair`: REV first on odd pairs."""
    return SIDES if pair % 2 == 1 else SIDES[::-1]


def run_side(side_dir, workload, seed, out):
    cmd = [sys.executable, os.path.join(side_dir, "benchmark", "run.py"),
           "--workload", workload, "--seed", str(seed), "--out", out]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    # run.py exits 1 when a check fails but still writes its result; the
    # failed checks are part of what --compare reports.
    if done.returncode not in (0, 1) or not os.path.exists(out):
        raise RuntimeError(f"{' '.join(cmd)} exited with {done.returncode}")
    with open(out) as f:
        return json.load(f)


def build_micro(side_dir):
    """The side's bench/micro, configured and built (Release) if missing."""
    build = os.path.join(side_dir, MICRO_BUILD)
    binary = os.path.join(build, "bench", "micro")
    if not os.path.exists(binary):
        log(f"building {binary}")
        quiet = {"stdout": subprocess.DEVNULL}
        subprocess.run(["cmake", "-B", build, "-S", side_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
        subprocess.run(["cmake", "--build", build, "--target", "micro", "-j",
                        str(min(4, os.cpu_count() or 1))], check=True,
                       **quiet)
    return binary


def run_micro(binary, pattern, out):
    """Map benchmark name -> real time in ns for one run of `binary`."""
    done = subprocess.run([binary, f"--benchmark_filter={pattern}",
                           "--benchmark_format=json"], stdout=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{binary} exited with {done.returncode}")
    with open(out, "w") as f:
        f.write(done.stdout)
    to_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    return {b["name"]: float(b["real_time"]) * to_ns[b.get("time_unit", "ns")]
            for b in json.loads(done.stdout)["benchmarks"]
            if b.get("run_type", "iteration") == "iteration"}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def report_micro(results):
    """One line per benchmark that every run of both sides reported."""
    names = [n for n in results["base"][0]
             if all(n in run for side in SIDES for run in results[side])]
    print("# benchmark base_ns change_ns ratio_median ratio_q1 ratio_q3 wins")
    for name in names:
        base = [run[name] for run in results["base"]]
        change = [run[name] for run in results["change"]]
        ratios = [c / b for b, c in zip(base, change)]
        q1, med, q3 = quartiles(ratios)
        wins = sum(1 for r in ratios if r < 1.0)
        print(f"{name} {statistics.median(base):.6g} "
              f"{statistics.median(change):.6g} {med:.3f} {q1:.3f} {q3:.3f} "
              f"{wins}/{len(ratios)}")


def merge(results):
    """One --out-format result from several single-run results."""
    first = results[0]
    return {"host": first["host"], "seconds": first["seconds"], "trace": 0,
            "runs": [run for r in results for run in r["runs"]]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", help="the revision to compare against")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default "
                             "population-1500)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--scratch",
                        help="directory for both checkouts and all results "
                             "(default: a new temporary directory)")
    parser.add_argument("--repo", default=ROOT,
                        help="git repository to export (default: this one)")
    parser.add_argument("--micro", metavar="FILTER",
                        help="pair bench/micro runs of the benchmarks "
                             "matching FILTER instead of benchmark/run.py")
    args = parser.parse_args()
    workloads = args.workload or ["population-1500"]
    scratch = os.path.abspath(args.scratch or
                              tempfile.mkdtemp(prefix="haccs-ab-"))
    dirs = {side: os.path.join(scratch, side) for side in SIDES}
    runs_dir = os.path.join(scratch, "runs")

    try:
        export_rev(args.repo, args.rev, dirs["base"])
        export_worktree(args.repo, dirs["change"])
        os.makedirs(runs_dir, exist_ok=True)
        results = {side: [] for side in SIDES}
        if args.micro:
            binaries = {side: build_micro(dirs[side]) for side in SIDES}
        for pair in range(1, args.pairs + 1):
            for side in pair_order(pair):
                if args.micro:
                    out = os.path.join(runs_dir, f"{side}-micro-{pair}.json")
                    log(f"pair {pair}/{args.pairs}: {side} micro")
                    results[side].append(
                        run_micro(binaries[side], args.micro, out))
                    continue
                for w in workloads:
                    out = os.path.join(runs_dir, f"{side}-{w}-{pair}.json")
                    log(f"pair {pair}/{args.pairs}: {side} {w} seed {pair}")
                    results[side].append(run_side(dirs[side], w, pair, out))
    except (subprocess.CalledProcessError, RuntimeError, OSError,
            tarfile.TarError, json.JSONDecodeError, KeyError) as e:
        log(f"ab.py: {e}")
        return 2

    if args.micro:
        report_micro(results)
        return 0

    merged = {}
    for side in SIDES:
        merged[side] = os.path.join(scratch, f"{side}.json")
        with open(merged[side], "w") as f:
            json.dump(merge(results[side]), f, indent=1)
    log(f"merged results: {merged['base']} {merged['change']}")
    return subprocess.run([sys.executable,
                           os.path.join(ROOT, "benchmark", "run.py"),
                           "--compare", merged["base"],
                           merged["change"]]).returncode


if __name__ == "__main__":
    sys.exit(main())
