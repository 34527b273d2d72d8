#!/usr/bin/env python3
"""The repository benchmark: one command that builds, runs, checks and reports.

    python3 benchmark/run.py                       # every workload, seed 1
    python3 benchmark/run.py --workload paper-femnist --seed 3 --seconds 20
    python3 benchmark/run.py --workload serving-flat --trace 1
    python3 benchmark/run.py --selfcheck
    python3 benchmark/run.py --repeat 10 --out parent.json
    python3 benchmark/run.py --compare parent.json change.json

Each workload runs in its own haccs_bench process: first the probe
self-check, then the measurement. Output is one `workload metric value unit`
line per metric; the last line of standard output is a JSON object with
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics. The full result, with the host stamp, is written to --out.

Exit codes: 0 all checks passed, 1 a check failed, 2 the benchmark could
not run (no sources, build failure, crash) and printed no result.
"""
import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD, "haccs_bench")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once and builds haccs_bench from the checkout's sources."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"repository sources missing: {needed} not found "
                             f"in {ROOT}")
    os.makedirs(BUILD, exist_ok=True)
    # Several runs may start in one checkout at once; one builds, the
    # others wait for it.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "--target", "haccs_bench",
                      "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                log(done.stdout[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def first_line(cmd):
    try:
        done = subprocess.run(cmd, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.split("\n")[0].strip() if done.returncode == 0 \
        else "unknown"


def host_stamp(kernel_backend, loadavg):
    """Facts that decide whether two results may be compared, plus the
    commit and the load average at start, which are recorded but not
    compared."""
    flags = set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    flags = set(line.split(":", 1)[1].split())
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": first_line([cmake_cache("CMAKE_CXX_COMPILER"),
                                "--version"]),
        "kernel_backend": kernel_backend,
        "HACCS_PORTABLE_KERNELS": os.environ.get("HACCS_PORTABLE_KERNELS", ""),
        "HACCS_KERNEL_BACKEND": os.environ.get("HACCS_KERNEL_BACKEND", ""),
        "avx2": "avx2" in flags,
        "fma": "fma" in flags,
        "commit": first_line(["git", "-C", ROOT, "rev-parse", "HEAD"]),
        "loadavg_1m": loadavg,
    }


UNCOMPARED_STAMP_KEYS = ("commit", "loadavg_1m")


def call(args):
    """Runs haccs_bench and returns the JSON object it printed."""
    done = subprocess.run([BINARY] + args, capture_output=True, text=True,
                          timeout=170)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        log(done.stderr[-4000:])
        raise BenchError(f"haccs_bench {' '.join(args)} exited with "
                         f"{done.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace):
    """Self-check, then measurement, each in its own haccs_bench process."""
    check = call([f"--workload={workload}", f"--seed={seed}", "--selfcheck"])
    record = {"workload": workload, "seed": seed,
              "checks": [dict(c, name="selfcheck." + c["name"])
                         for c in check["checks"]]}
    args = [f"--workload={workload}", f"--seed={seed}",
            f"--seconds={seconds}", f"--trace={int(trace)}"]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        record["trace_file"] = os.path.join(traces,
                                            f"{workload}-seed{seed}.json")
        args.append("--trace-file=" + record["trace_file"])
    result = call(args)
    record["checks"] += result["checks"]
    record["correct"] = all(c["ok"] for c in record["checks"])
    for key in ("attempted", "failed", "episodes", "cycles", "metrics",
                "per_episode", "self_time_ms", "kernel_backend"):
        record[key] = result[key]
    return record


def metric_specs(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def print_record(record, spec, trace):
    for m in metric_specs(spec, trace):
        value = record["metrics"][m["name"]]
        print(f"{record['workload']} {m['name']} {value:.6g} {m['unit']}")
    for c in record["checks"]:
        if not c["ok"]:
            print(f"{record['workload']} CHECK FAILED {c['name']}: "
                  f"{c['detail']}")
    if trace and record["self_time_ms"]:
        rows = sorted(record["self_time_ms"].items(),
                      key=lambda kv: -kv[1]["self_ms"])
        # Engine-thread self times partition the workload span; worker spans
        # run concurrently with the engine's net.recv waits.
        wall = sum(r["self_ms"] for _, r in rows if not r["worker"])
        print(f"# {record['workload']} self time per layer, first traced "
              f"episode ({wall:.1f} ms wall):")
        for name, row in rows:
            share = "concurrent" if row["worker"] else \
                f"{100 * row['self_ms'] / wall:5.1f}%"
            kind = " (unattributed)" if row["container"] else ""
            print(f"#   {name:28s} {row['calls']:7d} calls "
                  f"{row['self_ms']:10.1f} ms {share}{kind}")
        print(f"# Chrome trace: {record['trace_file']}")


def contract_line(records, spec, trace):
    """The last line: one JSON object. Each metric is the median over the
    workload's runs; with several workloads the names carry @workload."""
    workloads = list(dict.fromkeys(r["workload"] for r in records))
    metrics = {}
    for w in workloads:
        runs = [r for r in records if r["workload"] == w]
        for m in metric_specs(spec, trace):
            name = m["name"] if len(workloads) == 1 else f"{m['name']}@{w}"
            metrics[name] = {
                "value": statistics.median(r["metrics"][m["name"]]
                                           for r in runs),
                "unit": m["unit"]}
    return json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    })


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def print_repeat_summary(records, spec, trace):
    by_key = {}
    for r in records:
        for m in metric_specs(spec, trace):
            by_key.setdefault((r["workload"], m["name"], m["unit"]),
                              []).append(r["metrics"][m["name"]])
    print("# workload metric median q1 q3 unit spread(iqr/median)")
    for (workload, name, unit), values in by_key.items():
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{workload} {name} {med:.6g} {q1:.6g} {q3:.6g} {unit} "
              f"{spread:.3f}")


def compare(path_a, path_b, spec):
    """Classifies each (metric, workload) of B against parent A with the
    BENCHMARK.json bounds and the 9-of-10-pairs rule."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    stamp_a = {k: v for k, v in a["host"].items()
               if k not in UNCOMPARED_STAMP_KEYS}
    stamp_b = {k: v for k, v in b["host"].items()
               if k not in UNCOMPARED_STAMP_KEYS}
    if stamp_a != stamp_b:
        diff = {k: (stamp_a.get(k), stamp_b.get(k))
                for k in set(stamp_a) | set(stamp_b)
                if stamp_a.get(k) != stamp_b.get(k)}
        raise BenchError(f"host stamps differ, refusing to compare: {diff}")
    if a.get("trace") or b.get("trace"):
        raise BenchError("compare needs untraced (--trace 0) results")

    def runs(result, workload):
        return sorted((r for r in result["runs"] if r["workload"] == workload),
                      key=lambda r: r["seed"])

    verdicts = {}
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        ra, rb = runs(a, workload), runs(b, workload)
        if not ra or not rb:
            continue
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]] for r in ra]
            vb = [r["metrics"][m["name"]] for r in rb]
            lower = m["better"] == "lower"

            def better(x, y):
                return x < y if lower else x > y

            pairs = list(zip(va, vb))
            wins = sum(1 for x, y in pairs if better(y, x))
            q1, med_a, q3 = quartiles(va)
            med_b = statistics.median(vb)
            spread = (q3 - q1) / med_a if med_a else 0.0
            worse_by = ((med_b - med_a) if lower else (med_a - med_b)) / med_a \
                if med_a else 0.0
            all_better = all(better(y, x) for x in va for y in vb)
            if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
                    and abs(med_b - med_a) > q3 - q1 and better(med_b, med_a)):
                verdict = "improved"
            elif spread > m["bound"] and not all_better:
                verdict = "unresolved"
            elif worse_by > m["bound"]:
                verdict = "regressed"
            else:
                verdict = "unchanged"
            verdicts[f"{m['name']}@{workload}"] = verdict
            print(f"{workload} {m['name']} {verdict} parent={med_a:.6g} "
                  f"change={med_b:.6g} {m['unit']} wins={wins}/{len(pairs)} "
                  f"parent_spread={spread:.3f} bound={m['bound']}")
    return verdicts


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="measurement budget per workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--selfcheck", action="store_true",
                        help="only run the probe self-checks")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two --out results")
    parser.add_argument("--out", default=os.path.join(BUILD, "result.json"),
                        help="where to write the full JSON result")
    args = parser.parse_args()

    try:
        if args.compare:
            verdicts = compare(args.compare[0], args.compare[1], spec)
            print(json.dumps(verdicts))
            return 1 if "regressed" in verdicts.values() else 0

        loadavg = os.getloadavg()[0]
        build()
        workloads = [args.workload] if args.workload else names
        if args.selfcheck:
            ok = True
            for w in workloads:
                check = call([f"--workload={w}", f"--seed={args.seed}",
                              "--selfcheck"])
                for c in check["checks"]:
                    print(f"{w} selfcheck {c['name']} "
                          f"{'ok' if c['ok'] else 'FAILED ' + c['detail']}")
                ok &= check["correct"]
            return 0 if ok else 1

        records = []
        host = None
        started = time.time()
        for i in range(args.repeat):
            for w in workloads:
                record = run_workload(w, args.seed + i, args.seconds,
                                      args.trace)
                if host is None:
                    host = host_stamp(record["kernel_backend"], loadavg)
                records.append(record)
                if args.repeat == 1:
                    print_record(record, spec, args.trace)
        if args.repeat > 1:
            print_repeat_summary(records, spec, args.trace)
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump({"host": host, "seconds": args.seconds,
                       "trace": args.trace, "runs": records,
                       "elapsed_s": time.time() - started}, f, indent=1)
        print(contract_line(records, spec, args.trace))
        return 0 if all(r["correct"] for r in records) else 1
    except (BenchError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError) as e:
        log(f"run.py: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
