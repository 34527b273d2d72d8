#!/usr/bin/env bash
# Bad inputs to haccs_run, haccs_server, haccs_agg, haccs_worker or
# haccs_fuzz fail cleanly: one "<binary>: ..." line naming the problem and
# the binary's usage-error exit code (1; 2 for haccs_fuzz), never an abort,
# and before any data is generated, any port is opened or any connection is
# made. The binary's file name picks the cases, the expected prefix and the
# expected exit code. The serving binaries' shape refusals all come from
# net::Topology (src/net/topology.hpp).
#
# Usage: tools/haccs_run_errors_test.sh <path-to-haccs_run|haccs_server|
#        haccs_agg|haccs_worker|haccs_fuzz>
set -uo pipefail

run="$1"
name="$(basename "$run")"
want_rc=1
[[ "$name" == haccs_fuzz ]] && want_rc=2
failures=0

# expect_error EXPECTED_SUBSTRING ARGS...
expect_error() {
  local expected="$1"
  shift
  local err rc
  err="$(timeout 60 "$run" "$@" 2>&1 >/dev/null)"
  rc=$?
  if [[ "$rc" -ne "$want_rc" ]]; then
    echo "FAIL: $name $* exited $rc (want $want_rc): $err"
    failures=$((failures + 1))
  elif [[ "$err" != "$name: "*"$expected"* ]]; then
    echo "FAIL: $name $* printed '$err' (want '$name: ...$expected')"
    failures=$((failures + 1))
  elif [[ "$(wc -l <<<"$err")" -ne 1 ]]; then
    # Anything more means work (data generation, training) started first.
    echo "FAIL: $name $* printed more than the error: $err"
    failures=$((failures + 1))
  else
    echo "ok: $name $* -> $err"
  fi
}

case "$name" in
  haccs_run)
    expect_error "--rounds expects an integer, got 'abc'" --rounds=abc
    expect_error "--rounds expects an integer, got '2x'" --rounds=2x
    expect_error "unknown flags: --bogus" --bogus=1
    expect_error "--targets expects comma-separated numbers, got 'x'" \
      --targets=0.5,x
    expect_error "--clients expects a non-negative integer, got '-1'" \
      --clients=-1
    expect_error "clients_per_round (9) must lie in [1, 5]" \
      --clients=5 --per-round=9
    for knob in --scale-shard=8 --scale-sketch-dim=8 --scale-exact-cutoff=8 \
                --scale-dirty=0.5; do
      expect_error "${knob%%=*} requires --scale" "$knob"
    done
    expect_error "--scale-shard must be >= 1" --scale --scale-shard=0
    expect_error "--scale-sketch-dim must be >= 1" --scale --scale-sketch-dim=0
    expect_error "unknown partition 'bogus'" --partition=bogus
    expect_error "unknown hostile shape 'bogus'" --hostile=bogus
    expect_error "unknown noise mechanism 'bogus'" --mechanism=bogus
    expect_error "dropout must lie in [0, 1)" --dropout=1.5
    expect_error "hostile frac must lie in [0, 1]" --hostile-frac=2
    expect_error "--rho expects a finite number, got 'nan'" --rho=nan
    expect_error "epsilon must be finite and >= 0" --epsilon=-1
    expect_error "hostile span must be >= 1" --hostile=diurnal --hostile-span=0
    ;;
  haccs_server)
    # Port 0 everywhere: a refusal that came too late would still not
    # collide with anything listening.
    expect_error "--strategy=gradient learns from per-client update deltas, which --aggs" \
      --port=0 --workers=2 --aggs=2 --strategy=gradient
    expect_error "--strategy=gradient learns from per-client update deltas, which --agg-groups" \
      --port=0 --workers=2 --agg-groups=2 --strategy=gradient
    expect_error "--aggs and --agg-groups are exclusive" \
      --port=0 --workers=2 --aggs=2 --agg-groups=2
    expect_error "--resume requires --checkpoint" --port=0 --resume
    expect_error "--live-recluster requires --strategy=haccs-py, got --strategy=random" \
      --port=0 --live-recluster --strategy=random
    expect_error "--rho expects a finite number, got 'nan'" --port=0 --rho=nan
    expect_error "serving topology: workers = 0" --port=0 --workers=0
    expect_error "serving topology: aggs = 2 does not divide workers = 3" \
      --port=0 --workers=3 --aggs=2
    expect_error "serving topology: aggs = 3 does not divide workers = 4" \
      --port=0 --workers=4 --agg-groups=3
    expect_error "--quorum is not supported in tree mode" \
      --port=0 --workers=2 --aggs=2 --quorum=0.5
    ;;
  haccs_agg)
    # --listen-port=0 and a port file nobody writes: a refusal that came too
    # late would still neither collide nor connect anywhere.
    # --workers defaults to 1, which two aggregators cannot split.
    expect_error "serving topology: aggs = 2 does not divide workers = 1" \
      --listen-port=0 --port-file=/nonexistent --agg-id=2 --aggs=2
    expect_error "serving topology: aggregator id 2 out of range [0, 2)" \
      --listen-port=0 --port-file=/nonexistent --agg-id=2 --aggs=2 --workers=4
    # 2^32 would wrap to aggregator 0 in a 32-bit id.
    expect_error "serving topology: aggregator id 4294967296 out of range [0, 2)" \
      --listen-port=0 --port-file=/nonexistent --agg-id=4294967296 --aggs=2 \
      --workers=4
    expect_error "serving topology: aggs = 3 does not divide workers = 4" \
      --listen-port=0 --port-file=/nonexistent --aggs=3 --workers=4
    expect_error "serving topology: workers = 0" \
      --listen-port=0 --port-file=/nonexistent --workers=0
    ;;
  haccs_worker)
    expect_error "serving topology: worker id 4 out of range [0, 4)" \
      --port-file=/nonexistent --worker-id=4 --workers=4
    expect_error "serving topology: worker id 4294967296 out of range [0, 4)" \
      --port-file=/nonexistent --worker-id=4294967296 --workers=4
    expect_error "serving topology: workers = 0" \
      --port-file=/nonexistent --workers=0
    ;;
  haccs_fuzz)
    expect_error "spec key clients expects an integer, got '10x'" \
      --replay=clients=10x
    expect_error "unknown spec key: hostile_fraq (did you mean 'hostile_frac'?)" \
      --replay=hostile_fraq=0.2
    expect_error "--seeds expects an integer, got '2x'" --seeds=2x
    ;;
  *)
    echo "FAIL: no bad-input cases for '$name'"
    failures=1
    ;;
esac

[[ "$failures" -eq 0 ]]
