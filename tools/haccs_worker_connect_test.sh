#!/usr/bin/env bash
# A worker whose server is gone gives up after its own --reconnect-attempts:
# pointed at a closed port with 2 retries 10 ms apart, haccs_worker must
# exit 3 (connect retries exhausted) within 5 s. Each connect is a single
# attempt, so the retry budget is the worker's flags and nothing more.
#
# Usage: tools/haccs_worker_connect_test.sh <path-to-haccs_worker>
set -uo pipefail

worker="$1"

# A loopback port nothing listens on: the first candidate that refuses.
port=""
for candidate in 1 9 47 79 1023; do
  if ! (exec 3<>"/dev/tcp/127.0.0.1/$candidate") 2>/dev/null; then
    port="$candidate"
    break
  fi
done
if [[ -z "$port" ]]; then
  echo "FAIL: found no closed loopback port to dial"
  exit 1
fi

start=$(date +%s%N)
timeout 60 "$worker" --port="$port" --reconnect-attempts=2 \
  --reconnect-backoff-ms=10 --clients=4 --per-round=2 --rounds=1 \
  --classes=4 --seed=1 --log-level=error
rc=$?
elapsed_ms=$(( ($(date +%s%N) - start) / 1000000 ))

if [[ "$rc" -ne 3 ]]; then
  echo "FAIL: haccs_worker on closed port $port exited $rc (want 3)"
  exit 1
fi
if [[ "$elapsed_ms" -ge 5000 ]]; then
  echo "FAIL: haccs_worker took ${elapsed_ms} ms to give up (want < 5000)"
  exit 1
fi
echo "ok: haccs_worker gave up on closed port $port in ${elapsed_ms} ms"
