#!/usr/bin/env bash
# Serving-mode smoke tests across real processes (DESIGN.md §5g):
#
#   1. Chaos smoke — a 2-worker TCP run where every link drops ~5% of frames
#      and injects occasional disconnects, with heartbeat liveness, quorum
#      commit, and checkpointing enabled. The run must complete every round
#      (no hang); lost updates are re-covered by reconnection and quorum
#      degradation.
#   2. Crash-resume smoke — the same workload is SIGKILLed shortly after its
#      first checkpoint lands and restarted with --resume; the resumed run's
#      final metrics must match an uninterrupted reference bit-for-bit.
#   3. Ops-plane smoke (DESIGN.md §5i) — a traced run with the exposition
#      endpoint up: /healthz, /metrics, and /status are scraped mid-run, a
#      worker is SIGKILLed, the server is SIGTERMed, and the flight-recorder
#      dump plus the merged Chrome trace must both be parseable afterwards.
#      The server runs with --live-recluster, so the killed worker's
#      liveness edge must show as recluster_live_total >= 1 in the dump.
#      Set HACCS_SMOKE_ARTIFACT_DIR to keep the dump + trace (CI uploads
#      them as artifacts).
#   4. 3-tier smoke (DESIGN.md §5j) — root + 2 mid-tier aggregators + 4
#      workers across 7 real processes over TCP. A clean traced run checks
#      per-tier byte accounting (each aggregator's upstream counters must sum
#      exactly to the root's transport counters) and the merged cross-tier
#      trace; a second run drops ~5% of the frames on one aggregator's
#      uplink under a tight root collection budget and must still complete
#      every round (lost subtree contributions are salvaged or torn per
#      §5j, never hung).
#
# Usage: tools/serving_smoke.sh [build-dir]   (default: <repo>/build)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"
obs_dir="$(mktemp -d)"
trap 'rm -rf "$obs_dir"' EXIT

echo "== startup validation: bad strategies fail before the listener opens =="
# An unknown name and one that needs more than the wire's P(y) summaries.
for strategy in bogus haccs-pxy; do
  rm -f "$obs_dir/port"
  rc=0
  timeout 30 "$build/examples/haccs_server" --strategy="$strategy" \
    --port=0 --port-file="$obs_dir/port" 2>"$obs_dir/strategy.log" || rc=$?
  cat "$obs_dir/strategy.log"
  [[ "$rc" -eq 1 && ! -e "$obs_dir/port" ]] || {
    echo "--strategy=$strategy: exit $rc, port file written or not" >&2
    exit 1
  }
done

echo "== chaos smoke: serving mode completes under a hostile TCP wire =="
chaos_flags=(--rounds=3 --clients=12 --per-round=4 --classes=6 --seed=7)
rm -f "$obs_dir/port"
timeout 180 "$build/examples/haccs_server" \
  --workers=2 --port=0 --port-file="$obs_dir/port" \
  --summary-json="$obs_dir/chaos_server.json" \
  --checkpoint="$obs_dir/chaos_ck.bin" \
  --heartbeat-timeout-ms=5000 --quorum=0.75 --quorum-grace-ms=200 \
  --chaos-seed=7 --chaos-drop=0.05 --chaos-disconnect=0.01 \
  "${chaos_flags[@]}" &
server_pid=$!
timeout 180 "$build/examples/haccs_worker" \
  --worker-id=0 --workers=2 --port-file="$obs_dir/port" \
  --heartbeat-interval-ms=500 --reconnect-attempts=40 \
  --chaos-seed=7 --chaos-drop=0.05 "${chaos_flags[@]}" &
w0_pid=$!
timeout 180 "$build/examples/haccs_worker" \
  --worker-id=1 --workers=2 --port-file="$obs_dir/port" \
  --heartbeat-interval-ms=500 --reconnect-attempts=40 \
  --chaos-seed=8 --chaos-drop=0.05 "${chaos_flags[@]}" &
w1_pid=$!
wait "$server_pid" && wait "$w0_pid" && wait "$w1_pid"
if command -v python3 >/dev/null; then
  python3 - "$obs_dir" <<'EOF'
import json, sys
chaos = json.load(open(sys.argv[1] + "/chaos_server.json"))
assert chaos["rounds_completed"] == chaos["rounds"] == 3, chaos
assert chaos["checkpoints_written"] >= 3, chaos
print(f"chaos smoke OK: {chaos['rounds_completed']} rounds under chaos, "
      f"{chaos['net_reconnects']} reconnects, "
      f"{chaos['rounds_quorum_degraded']} quorum-degraded rounds")
EOF
else
  grep -q '"rounds_completed": 3' "$obs_dir/chaos_server.json"
  echo "chaos smoke OK (python3 not found; grepped rounds_completed)"
fi

echo "== crash-resume smoke: kill -9 mid-run, --resume matches uninterrupted =="
resume_flags=(--rounds=60 --clients=12 --per-round=4 --classes=6 --seed=7)
rm -f "$obs_dir/port" "$obs_dir/resume_ck.bin"
timeout 300 "$build/examples/haccs_server" \
  --workers=2 --port=0 --port-file="$obs_dir/port" \
  --summary-json="$obs_dir/resume_ref.json" "${resume_flags[@]}" &
server_pid=$!
timeout 300 "$build/examples/haccs_worker" \
  --worker-id=0 --workers=2 --port-file="$obs_dir/port" "${resume_flags[@]}" &
w0_pid=$!
timeout 300 "$build/examples/haccs_worker" \
  --worker-id=1 --workers=2 --port-file="$obs_dir/port" "${resume_flags[@]}" &
w1_pid=$!
wait "$server_pid" && wait "$w0_pid" && wait "$w1_pid"
rm -f "$obs_dir/port"
# No `timeout` wrapper on this server: it is about to get SIGKILLed directly
# (killing a timeout wrapper would orphan the real process), and if the kill
# races with a fast run finishing, the server exits on its own anyway.
"$build/examples/haccs_server" \
  --workers=2 --port=0 --port-file="$obs_dir/port" \
  --checkpoint="$obs_dir/resume_ck.bin" "${resume_flags[@]}" &
server_pid=$!
timeout 300 "$build/examples/haccs_worker" \
  --worker-id=0 --workers=2 --port-file="$obs_dir/port" \
  --reconnect-attempts=60 "${resume_flags[@]}" &
w0_pid=$!
timeout 300 "$build/examples/haccs_worker" \
  --worker-id=1 --workers=2 --port-file="$obs_dir/port" \
  --reconnect-attempts=60 "${resume_flags[@]}" &
w1_pid=$!
while [[ ! -s "$obs_dir/resume_ck.bin" ]]; do sleep 0.05; done
sleep 0.2
kill -9 "$server_pid" 2>/dev/null
wait "$server_pid" 2>/dev/null || true
rm -f "$obs_dir/port"
timeout 300 "$build/examples/haccs_server" \
  --workers=2 --port=0 --port-file="$obs_dir/port" \
  --checkpoint="$obs_dir/resume_ck.bin" --resume \
  --summary-json="$obs_dir/resume_res.json" "${resume_flags[@]}"
wait "$w0_pid" && wait "$w1_pid"
if command -v python3 >/dev/null; then
  python3 - "$obs_dir" <<'EOF'
import json, sys
obs_dir = sys.argv[1]
ref = json.load(open(obs_dir + "/resume_ref.json"))
res = json.load(open(obs_dir + "/resume_res.json"))
assert res["resumed"] is True, res
assert res["rounds_completed"] == ref["rounds_completed"] == 60, (ref, res)
for key in ("final_accuracy", "best_accuracy", "total_sim_time_s",
            "uplink_bytes", "downlink_bytes"):
    assert ref[key] == res[key], (key, ref[key], res[key])
print(f"crash-resume OK: resumed run matches the uninterrupted one "
      f"(final_accuracy={res['final_accuracy']})")
EOF
else
  grep -q '"resumed": true' "$obs_dir/resume_res.json"
  echo "crash-resume OK (python3 not found; grepped resumed flag)"
fi

if command -v python3 >/dev/null; then
  echo "== ops-plane smoke: scrape, kill a worker, SIGTERM, flight dump =="
  ops_flags=(--rounds=500 --clients=12 --per-round=4 --classes=6 --seed=7)
  rm -f "$obs_dir/port" "$obs_dir/status_port"
  mkdir -p "$obs_dir/flight"
  # No `timeout` wrapper: this server is SIGTERMed by hand below, and a
  # wrapper would swallow the signal instead of forwarding the drain.
  "$build/examples/haccs_server" \
    --workers=2 --port=0 --port-file="$obs_dir/port" \
    --status-port=0 --status-port-file="$obs_dir/status_port" \
    --trace="$obs_dir/ops_trace.json" --flight-dir="$obs_dir/flight" \
    --summary-json="$obs_dir/ops_server.json" \
    --heartbeat-timeout-ms=2000 --quorum=0.5 --quorum-grace-ms=200 \
    --live-recluster "${ops_flags[@]}" &
  server_pid=$!
  # Worker 0 is not wrapped in `timeout`: it is about to get SIGKILLed
  # directly, and killing a wrapper would orphan the real process.
  "$build/examples/haccs_worker" \
    --worker-id=0 --workers=2 --port-file="$obs_dir/port" \
    --heartbeat-interval-ms=500 --reconnect-attempts=40 "${ops_flags[@]}" &
  w0_pid=$!
  timeout 300 "$build/examples/haccs_worker" \
    --worker-id=1 --workers=2 --port-file="$obs_dir/port" \
    --heartbeat-interval-ms=500 --reconnect-attempts=40 "${ops_flags[@]}" &
  w1_pid=$!
  while [[ ! -s "$obs_dir/status_port" ]]; do sleep 0.05; done
  sleep 1  # let a few rounds commit before scraping
  python3 - "$obs_dir" <<'EOF'
import sys, urllib.request
port = open(sys.argv[1] + "/status_port").read().strip()
def get(target):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{target}",
                                timeout=10) as r:
        assert r.status == 200, (target, r.status)
        return r.read().decode()
assert get("/healthz").strip() == "ok"
metrics = get("/metrics")
assert "# TYPE" in metrics and "haccs_" in metrics, metrics[:200]
status = get("/status")
assert '"workers":[' in status and '"round":' in status, status[:200]
print(f"mid-run scrape OK: /healthz, /metrics ({len(metrics)} B), /status")
EOF
  kill -9 "$w0_pid" 2>/dev/null || true
  wait "$w0_pid" 2>/dev/null || true
  sleep 1  # the server must notice the dead worker and keep committing
  kill -TERM "$server_pid"
  wait "$server_pid"
  wait "$w1_pid" || true
  python3 - "$obs_dir" <<'EOF'
import glob, json, sys
obs_dir = sys.argv[1]
dumps = glob.glob(obs_dir + "/flight/flight-*.json")
assert dumps, "no flight-recorder dump written"
flight = json.load(open(dumps[0]))
for key in ("reason", "rounds", "log_lines", "metrics"):
    assert key in flight, (key, list(flight))
assert flight["reason"] == "sigterm-drain", flight["reason"]
live = flight["metrics"]["counters"].get("recluster_live_total", 0)
assert live >= 1, f"no liveness re-cluster after the kill: {live}"
trace = json.load(open(obs_dir + "/ops_trace.json"))
events = trace["traceEvents"]
pids = {e["pid"] for e in events}
assert 1 in pids and len(pids) >= 2, pids
rounds = {e["args"]["span"] for e in events
          if e.get("name") == "round" and "args" in e}
child = [e for e in events
         if e.get("name") == "local_train" and e.get("pid", 1) != 1]
assert child, "no worker local_train spans in the merged trace"
for e in child:
    assert e["args"]["parent"] in rounds, e
print(f"ops-plane OK: flight dump ({flight['reason']}, "
      f"{len(flight['rounds'])} rounds ringed, {live} live re-clusters), "
      f"merged trace with {len(pids)} tracks and {len(child)} worker spans")
EOF
  if [[ -n "${HACCS_SMOKE_ARTIFACT_DIR:-}" ]]; then
    mkdir -p "$HACCS_SMOKE_ARTIFACT_DIR"
    cp "$obs_dir"/flight/flight-*.json "$obs_dir/ops_trace.json" \
       "$HACCS_SMOKE_ARTIFACT_DIR/" 2>/dev/null || true
    echo "kept ops artifacts in $HACCS_SMOKE_ARTIFACT_DIR"
  fi
else
  echo "== ops-plane smoke skipped (python3 not found) =="
fi

echo "== 3-tier smoke: root + 2 mid-tier aggregators + 4 workers =="
tree_flags=(--rounds=3 --clients=16 --per-round=6 --classes=6 --seed=11)
# launch_tree CHAOS_AGG1=0|1: root + 2 aggs + 4 workers; worker w fronts
# aggregator w/2. Aggregator stderr is captured (the exit line carries the
# per-tier byte counters) and replayed into the log afterwards. In chaos
# mode aggregator 1's uplink drops frames, so the root runs under a tight
# collection budget and the faulty subtree may exit "upstream lost"
# (tolerated); the root and the clean subtree must still exit 0.
launch_tree() {
  local chaos_agg1="$1" agg1_chaos=() root_extra=()
  if [[ "$chaos_agg1" -eq 1 ]]; then
    # Seed chosen so the deterministic draw sequence spares the ~9-frame
    # TopologyHello/Summary handshake (which has no retry path) and first
    # bites on mid-round traffic, where the root's collection budget and
    # salvage/torn machinery absorb the loss.
    agg1_chaos=(--chaos-seed=1 --chaos-drop=0.05 --heartbeat-interval-ms=500)
    root_extra=(--io-timeout-ms=8000)
  fi
  rm -f "$obs_dir/tree_port" "$obs_dir/tree_agg0_port" \
    "$obs_dir/tree_agg1_port" "$obs_dir/tree_server.json" \
    "$obs_dir/tree_trace.json"
  timeout 300 "$build/examples/haccs_server" \
    --workers=4 --aggs=2 --port=0 --port-file="$obs_dir/tree_port" \
    --summary-json="$obs_dir/tree_server.json" \
    --trace="$obs_dir/tree_trace.json" "${root_extra[@]}" \
    "${tree_flags[@]}" &
  server_pid=$!
  timeout 300 "$build/examples/haccs_agg" \
    --agg-id=0 --aggs=2 --workers=4 --listen-port=0 \
    --listen-port-file="$obs_dir/tree_agg0_port" \
    --port-file="$obs_dir/tree_port" 2>"$obs_dir/tree_agg0.log" &
  a0_pid=$!
  timeout 300 "$build/examples/haccs_agg" \
    --agg-id=1 --aggs=2 --workers=4 --listen-port=0 \
    --listen-port-file="$obs_dir/tree_agg1_port" \
    --port-file="$obs_dir/tree_port" "${agg1_chaos[@]}" \
    2>"$obs_dir/tree_agg1.log" &
  a1_pid=$!
  worker_pids=()
  for w in 0 1 2 3; do
    timeout 300 "$build/examples/haccs_worker" \
      --worker-id="$w" --workers=4 \
      --port-file="$obs_dir/tree_agg$((w / 2))_port" "${tree_flags[@]}" &
    worker_pids+=($!)
  done
  wait "$server_pid"
  local rc=0
  wait "$a0_pid"
  wait "$a1_pid" || rc=$?
  for pid in "${worker_pids[@]}"; do wait "$pid" || rc=$?; done
  sed 's/^/[agg0] /' "$obs_dir/tree_agg0.log"
  sed 's/^/[agg1] /' "$obs_dir/tree_agg1.log"
  if [[ "$chaos_agg1" -eq 0 && "$rc" -ne 0 ]]; then
    echo "clean 3-tier run: unexpected nonzero exit ($rc)" >&2
    return 1
  fi
}

launch_tree 0
if command -v python3 >/dev/null; then
  python3 - "$obs_dir" <<'EOF'
import json, re, sys
obs_dir = sys.argv[1]
summary = json.load(open(obs_dir + "/tree_server.json"))
assert summary["tier"] == "root" and summary["aggs"] == 2, summary
assert summary["rounds_completed"] == summary["rounds"] == 3, summary
assert summary["net_frames_corrupt"] == 0, summary
# Per-tier byte accounting (DESIGN.md §5j): every framed byte an aggregator
# sent upstream landed in the root's transport counters and vice versa —
# exact sums, not approximations, because the clean run loses nothing.
up = down = 0
for a in (0, 1):
    log = open(f"{obs_dir}/tree_agg{a}.log").read()
    m = re.search(r"agg \d+: (\w+) after (\d+) round\(s\).*?"
                  r"(\d+) B up / (\d+) B down", log)
    assert m, log
    assert m.group(1) == "shutdown" and int(m.group(2)) == 3, log
    up += int(m.group(3))
    down += int(m.group(4))
assert up == summary["net_bytes_received"], (up, summary)
assert down == summary["net_bytes_sent"], (down, summary)
trace = json.load(open(obs_dir + "/tree_trace.json"))
pids = {e["pid"] for e in trace["traceEvents"]}
assert 1 in pids and len(pids) >= 3, pids
print(f"3-tier smoke OK: {summary['rounds_completed']} rounds, byte "
      f"accounting exact ({up} B up / {down} B down across 2 aggregators), "
      f"merged trace with {len(pids)} tracks")
EOF
else
  grep -q '"rounds_completed": 3' "$obs_dir/tree_server.json"
  echo "3-tier smoke OK (python3 not found; grepped rounds_completed)"
fi
if [[ -n "${HACCS_SMOKE_ARTIFACT_DIR:-}" ]]; then
  mkdir -p "$HACCS_SMOKE_ARTIFACT_DIR"
  cp "$obs_dir/tree_server.json" "$obs_dir/tree_trace.json" \
     "$HACCS_SMOKE_ARTIFACT_DIR/" 2>/dev/null || true
  echo "kept 3-tier artifacts in $HACCS_SMOKE_ARTIFACT_DIR"
fi

echo "== 3-tier smoke: frame drops on one aggregator uplink =="
launch_tree 1
if command -v python3 >/dev/null; then
  python3 - "$obs_dir" <<'EOF'
import json, sys
summary = json.load(open(sys.argv[1] + "/tree_server.json"))
assert summary["rounds_completed"] == summary["rounds"] == 3, summary
print(f"3-tier chaos OK: {summary['rounds_completed']} rounds despite a "
      f"lossy uplink")
EOF
else
  grep -q '"rounds_completed": 3' "$obs_dir/tree_server.json"
  echo "3-tier chaos OK (python3 not found; grepped rounds_completed)"
fi

echo "== serving smoke passed =="
