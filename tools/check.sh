#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the test suite — once with
# the default toolchain flags and once under ASan+UBSan (HACCS_SANITIZE).
# The sanitizer pass additionally re-runs the kernel equivalence tests with a
# raised randomized-iteration count, so the packed GEMM edge tiles and
# im2col/col2im scatter paths get deep out-of-bounds/UB coverage.
#
# Usage: tools/check.sh [--skip-sanitize]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
skip_sanitize=0
[[ "${1:-}" == "--skip-sanitize" ]] && skip_sanitize=1

run_suite() {
  local build_dir="$1"
  shift
  cmake -B "$build_dir" -S "$repo" "$@"
  cmake --build "$build_dir" -j "$jobs"
  ctest --test-dir "$build_dir" -L tier1 --output-on-failure -j "$jobs"
}

echo "== tier-1: default build =="
run_suite "$repo/build"

echo "== slow tier: fuzz sweep + mutation suites =="
ctest --test-dir "$repo/build" -L slow --output-on-failure -j "$jobs"

echo "== scenario fuzzer: invariant + differential oracles over 50 seeds =="
"$repo/build/tools/haccs_fuzz" --seeds 0..49

echo "== mutation smoke: injected Eq. 7 bug must be caught =="
"$repo/build/tools/haccs_fuzz" --mutate drop-eq7-normalization \
  --seeds 0..10 --expect-violation --no-differential

echo "== telemetry artifacts: traced run produces valid JSON =="
obs_dir="$(mktemp -d)"
trap 'rm -rf "$obs_dir"' EXIT
obs_rounds=12
"$repo/build/tools/haccs_run" \
  --strategy=haccs-py --rounds="$obs_rounds" --clients=12 --per-round=4 \
  --log-level=warn --csv="$obs_dir/traced" \
  --trace="$obs_dir/trace.json" --metrics="$obs_dir/metrics.json" \
  --events="$obs_dir/events.jsonl" --summary-json="$obs_dir/summary.json"
if command -v python3 >/dev/null; then
  python3 -m json.tool "$obs_dir/trace.json" > /dev/null
  python3 -m json.tool "$obs_dir/metrics.json" > /dev/null
  python3 -m json.tool "$obs_dir/summary.json" > /dev/null
  # JSONL: every line parses on its own, one event per round, and the
  # metrics snapshot counted every round.
  python3 - "$obs_dir" "$obs_rounds" <<'EOF'
import json, sys
obs_dir, rounds = sys.argv[1], int(sys.argv[2])
lines = [json.loads(l) for l in open(obs_dir + "/events.jsonl")]
assert len(lines) == rounds, f"expected {rounds} events, got {len(lines)}"
assert all(e["type"] == "round" for e in lines)
metrics = json.load(open(obs_dir + "/metrics.json"))
assert metrics["counters"]["rounds_total"] == rounds, metrics["counters"]
print(f"telemetry OK: {rounds} round events, rounds_total={rounds}")
EOF
else
  echo "python3 not found; skipping JSON validation"
fi

echo "== telemetry off: selector output byte-identical =="
"$repo/build/tools/haccs_run" \
  --strategy=haccs-py --rounds="$obs_rounds" --clients=12 --per-round=4 \
  --log-level=warn --csv="$obs_dir/plain"
diff "$obs_dir/plain_curve.csv" "$obs_dir/traced_curve.csv"
echo "curves identical"

echo "== multi-process smoke: 2 workers over TCP == single-process run =="
# Same workload three ways: haccs_server + 2 haccs_worker processes on an
# ephemeral localhost port, versus the in-process haccs_run. The run is
# bit-identical by design (jobs carry the engine's forked RNG seeds), so the
# final accuracies must match exactly, not approximately.
cmake --build "$repo/build" -j "$jobs" --target haccs_server haccs_worker haccs_run
net_flags=(--rounds=6 --clients=12 --per-round=4 --classes=6 --seed=7)
rm -f "$obs_dir/port"
timeout 120 "$repo/build/examples/haccs_server" \
  --workers=2 --port=0 --port-file="$obs_dir/port" \
  --summary-json="$obs_dir/net_server.json" \
  --trace="$obs_dir/net_trace.json" "${net_flags[@]}" &
server_pid=$!
timeout 120 "$repo/build/examples/haccs_worker" \
  --worker-id=0 --workers=2 --port-file="$obs_dir/port" "${net_flags[@]}" &
w0_pid=$!
timeout 120 "$repo/build/examples/haccs_worker" \
  --worker-id=1 --workers=2 --port-file="$obs_dir/port" "${net_flags[@]}" &
w1_pid=$!
wait "$server_pid" && wait "$w0_pid" && wait "$w1_pid"
"$repo/build/tools/haccs_run" \
  --strategy=haccs-py --log-level=warn \
  --summary-json="$obs_dir/net_direct.json" "${net_flags[@]}"
if command -v python3 >/dev/null; then
  python3 - "$obs_dir" <<'EOF'
import json, sys
obs_dir = sys.argv[1]
tcp = json.load(open(obs_dir + "/net_server.json"))
direct = json.load(open(obs_dir + "/net_direct.json"))
assert tcp["final_accuracy"] == direct["final_accuracy"], (tcp, direct)
assert tcp["uplink_bytes"] == direct["uplink_bytes"], (tcp, direct)
assert tcp["downlink_bytes"] == direct["downlink_bytes"], (tcp, direct)
assert tcp["net_bytes_sent"] >= tcp["downlink_bytes"]
print(f"multi-process OK: final_accuracy={tcp['final_accuracy']} both ways, "
      f"{tcp['net_bytes_sent']} bytes over the wire")
# The merged trace (DESIGN.md §5i): server round spans on pid 1, each
# worker's local_train spans on its own track, parented under a round span
# of the matching round.
trace = json.load(open(obs_dir + "/net_trace.json"))
events = trace["traceEvents"]
pids = {e["pid"] for e in events}
assert 1 in pids and len(pids) >= 3, f"expected server + 2 workers, got {pids}"
round_spans = {e["args"]["span"]: e["args"]["round"] for e in events
               if e.get("name") == "round" and "args" in e}
assert len(round_spans) == 6, round_spans
worker_spans = [e for e in events
                if e.get("name") == "local_train" and e.get("pid", 1) != 1]
assert worker_spans, "no worker local_train spans shipped home"
for e in worker_spans:
    parent = e["args"]["parent"]
    assert parent in round_spans, (e, sorted(round_spans))
    assert round_spans[parent] == e["args"]["round"], e
print(f"merged trace OK: {len(round_spans)} round spans, "
      f"{len(worker_spans)} worker spans on {len(pids) - 1} tracks")
EOF
else
  echo "python3 not found; skipping multi-process summary comparison"
fi

# Serving-mode smokes (chaos wire + kill-9/--resume), shared with CI.
"$repo/tools/serving_smoke.sh" "$repo/build"

if [[ "$skip_sanitize" -eq 0 ]]; then
  echo "== tier-1: ASan+UBSan build =="
  run_suite "$repo/build-sanitize" -DHACCS_SANITIZE=address,undefined

  echo "== kernel equivalence under ASan+UBSan (extended iterations) =="
  HACCS_KERNEL_TEST_ITERS=150 \
    "$repo/build-sanitize/tests/haccs_tests" --gtest_filter='Kernels.*'
  # Same sweep through the portable blocked backend (the AVX2 path is what
  # the CPU dispatch normally picks, so force the fallback explicitly).
  HACCS_KERNEL_TEST_ITERS=150 HACCS_PORTABLE_KERNELS=1 \
    "$repo/build-sanitize/tests/haccs_tests" --gtest_filter='Kernels.*'

  # Wire protocol + transports under ASan+UBSan: codec buffer arithmetic,
  # the incremental frame parser, and the TCP/loopback paths all do manual
  # byte-offset work — exactly where out-of-bounds bugs hide.
  echo "== net protocol under ASan+UBSan =="
  "$repo/build-sanitize/tests/haccs_tests" \
    --gtest_filter='Crc32.*:Wire.*:Frame*.*:NetCodec.*:SummaryCodec.*:Checkpoint.*:Loopback.*:Tcp.*:RunCheckpoint.*:ChaosTransport.*'

  # Observability subsystem under TSan: the trace buffer, metrics registry,
  # and event log are the only components mutated concurrently from the
  # thread pool *and* arbitrary user threads, so they get a dedicated
  # data-race pass (the ASan tree above already ran them for memory safety).
  echo "== obs concurrency under TSan =="
  cmake -B "$repo/build-tsan" -S "$repo" -DHACCS_SANITIZE=thread
  cmake --build "$repo/build-tsan" -j "$jobs" --target haccs_tests
  "$repo/build-tsan/tests/haccs_tests" --gtest_filter='ObsTest.*'

  # Transports under TSan: the loopback queues and the LoopbackCluster
  # worker threads are the net layer's concurrent surface (TCP I/O is
  # single-threaded per connection; the cluster drives real cross-thread
  # frame traffic through the same dispatcher the server binary uses). The
  # tree suites add the mid tier's heartbeat thread, which sends upstream
  # while the aggregator collects.
  echo "== net transports under TSan =="
  "$repo/build-tsan/tests/haccs_tests" \
    --gtest_filter='Loopback.*:Tcp.*:TransportDispatcher.*:EngineOverTransport.*:ChaosTransport.*:ServingDispatcher.*:WorkerReconnect.*:ServingTrace.*:ServingStatus.*:HierMidTier*:HierTree.*:HierFleet.*'

  # parallel_for runs a chunk on the calling thread as well as on the
  # workers, data generation writes every dataset row from the pool, and
  # the engine's settle fold validates and sums updates on it.
  echo "== thread pool and parallel data generation under TSan =="
  "$repo/build-tsan/tests/haccs_tests" \
    --gtest_filter='ThreadPool.*:ParallelFor.*:Rng*:Partition.*:SyntheticGenerator.*:EngineSettle.*:EngineFaults.*'
fi

echo "== all checks passed =="
