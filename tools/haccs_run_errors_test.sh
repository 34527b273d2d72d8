#!/usr/bin/env bash
# Bad haccs_run inputs fail cleanly: exit code 1 and one "haccs_run: ..."
# line naming the problem, never an abort, and before any data is generated.
#
# Usage: tools/haccs_run_errors_test.sh <path-to-haccs_run>
set -uo pipefail

run="$1"
failures=0

# expect_error EXPECTED_SUBSTRING ARGS...
expect_error() {
  local expected="$1"
  shift
  local err rc
  err="$(timeout 60 "$run" "$@" 2>&1 >/dev/null)"
  rc=$?
  if [[ "$rc" -ne 1 ]]; then
    echo "FAIL: haccs_run $* exited $rc (want 1): $err"
    failures=$((failures + 1))
  elif [[ "$err" != "haccs_run: "*"$expected"* ]]; then
    echo "FAIL: haccs_run $* printed '$err' (want 'haccs_run: ...$expected')"
    failures=$((failures + 1))
  elif [[ "$(wc -l <<<"$err")" -ne 1 ]]; then
    # Anything more means work (data generation, training) started first.
    echo "FAIL: haccs_run $* printed more than the error: $err"
    failures=$((failures + 1))
  else
    echo "ok: haccs_run $* -> $err"
  fi
}

expect_error "--rounds expects an integer, got 'abc'" --rounds=abc
expect_error "--rounds expects an integer, got '2x'" --rounds=2x
expect_error "unknown flags: --bogus" --bogus=1
expect_error "--targets expects comma-separated numbers, got 'x'" \
  --targets=0.5,x
expect_error "--clients expects a non-negative integer, got '-1'" --clients=-1
expect_error "clients_per_round (9) must lie in [1, 5]" \
  --clients=5 --per-round=9

[[ "$failures" -eq 0 ]]
