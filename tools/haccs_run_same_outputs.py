#!/usr/bin/env python3
"""Checks that two haccs_run binaries agree on every workload shape.

Usage: tools/haccs_run_same_outputs.py BASE_HACCS_RUN NEW_HACCS_RUN [OUT_DIR]

Runs both with --clients=20 --per-round=4 --rounds=6 --dropout=0.1 over
every partition x hostile value (none plus each shape), and with
--epsilon=1 under each noise mechanism, and compares the --summary-json
files field by field; only wall_time_s may differ. Exits 1 on any
difference.
"""
import json
import os
import subprocess
import sys
import tempfile

COMMON = ["--clients=20", "--per-round=4", "--rounds=6", "--dropout=0.1"]
CASES = [[f"--partition={p}", f"--hostile={h}"]
         for p in ["majority", "iid", "klabels", "feature-skew", "dirichlet",
                   "groups"]
         for h in ["none", "flash-crowd", "diurnal", "outage", "drift",
                   "targeted-stragglers"]]
CASES += [["--epsilon=1", f"--mechanism={m}"] for m in ["laplace", "gaussian"]]


def summary(binary, args, path):
    subprocess.run([binary, *COMMON, *args, f"--summary-json={path}"],
                   check=True, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    with open(path) as f:
        data = json.load(f)
    data.pop("wall_time_s")
    return data


def main(base, new, out=None):
    out = out or tempfile.mkdtemp(prefix="haccs_run_same_outputs.")
    os.makedirs(out, exist_ok=True)
    failures = 0
    for i, args in enumerate(CASES):
        a = summary(base, args, os.path.join(out, f"base-{i}.json"))
        b = summary(new, args, os.path.join(out, f"new-{i}.json"))
        diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        failures += bool(diff)
        print(f"{'DIFF' if diff else 'same'} {' '.join(args)} {diff or ''}")
    print(f"{failures} of {len(CASES)} runs differ")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
