#!/usr/bin/env python3
"""Paired before/after benchmark runs: a revision against the working tree.

    tools/ab.py REV                              # population-1500, 10 pairs
    tools/ab.py HEAD~1 --workload paper-femnist --workload hostile-churn
    tools/ab.py main --pairs 12 --scratch /tmp/ab

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

Each side builds its own haccs_bench (Release) in its scratch directory the
first time it runs. Reusing --scratch keeps a side's build only while its
sources are the same: each side records a stamp of what it exported (REV's
tree id, or a hash of the working-tree files), and a changed stamp discards
the build. The exported files carry old timestamps (REV's commit time, or
the working tree's own), so an incremental build on top of them could
silently keep the previous binary.

Exit codes: those of run.py --compare (0, or 1 when a metric regressed), or
2 when a side could not be exported or run.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "change")
KEEP = "build-bench"  # a side's benchmark build, reused across calls
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
        if name == KEEP and same:
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
        for pair in range(1, args.pairs + 1):
            for side in pair_order(pair):
                for w in workloads:
                    out = os.path.join(runs_dir, f"{side}-{w}-{pair}.json")
                    log(f"pair {pair}/{args.pairs}: {side} {w} seed {pair}")
                    results[side].append(run_side(dirs[side], w, pair, out))
    except (subprocess.CalledProcessError, RuntimeError, OSError,
            tarfile.TarError, json.JSONDecodeError) as e:
        log(f"ab.py: {e}")
        return 2

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
