#!/usr/bin/env bash
# Benchmark runner: builds the Release tree and runs the google-benchmark
# suites with JSON output (the tracked kernel, wire-protocol and scale perf
# baselines). End-to-end run cost is measured by the repo benchmark,
# `python3 benchmark/run.py` (benchmark/README.md).
#
# Usage: tools/bench.sh [output.json] [--filter=REGEX] [--skip-net]
#        [--net-only] [--skip-scale] [--scale-only] [--check]
#
#   output.json   where to write the google-benchmark JSON
#                 (default: BENCH_kernels.json at the repo root — the
#                 committed baseline; regenerate it when kernels change and
#                 commit the diff alongside the change that caused it)
#   --filter=RE   restrict to benchmarks matching RE (default: the compute
#                 kernels — GEMM family, conv, train step, evaluation,
#                 FedAvg accumulation)
#   --skip-net    skip the wire-protocol benchmarks
#   --net-only    wire-protocol benchmarks only (writes BENCH_net.json —
#                 CRC32 throughput, ClientUpdate encode/decode for each
#                 compression kind, and the flat-vs-tree round dispatch pair
#                 (§5j); regenerate when src/net or src/hier changes)
#   --skip-scale  skip the scale-pipeline benchmarks
#   --scale-only  scale-pipeline benchmarks only (writes BENCH_scale.json —
#                 sharded clustering + incremental re-cluster at 10k / 100k /
#                 1M clients; regenerate when src/scale changes)
#   --check       regression-gate mode: run to temp files and compare each
#                 google-benchmark suite against its committed BENCH_*.json
#                 via tools/bench_check.py instead of overwriting baselines.
#                 Each suite has its own noise threshold (kernels 0.6, net
#                 0.8, scale 1.0); override per suite with
#                 HACCS_BENCH_TOLERANCE_<SUITE> or globally with
#                 HACCS_BENCH_TOLERANCE.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

out="$repo/BENCH_kernels.json"
filter='BM_Gemm|BM_Conv2d|BM_MlpTrainStep|BM_Evaluation|BM_FedAvgAccumulate'
net_filter='BM_Crc32|BM_EncodeUpdate|BM_DecodeUpdate|BM_FlatRoundDispatch|BM_TreeRoundDispatch'
run_micro=1
run_net=1
run_scale=1
check=0
for arg in "$@"; do
  case "$arg" in
    --filter=*) filter="${arg#--filter=}" ;;
    --skip-net) run_net=0 ;;
    --net-only) run_micro=0; run_scale=0 ;;
    --skip-scale) run_scale=0 ;;
    --scale-only) run_micro=0; run_net=0 ;;
    --check) check=1 ;;
    *) out="$arg" ;;
  esac
done

# In check mode, benchmark output goes to a scratch dir and each suite is
# compared against its committed baseline instead of replacing it.
checkdir=""
if [[ "$check" -eq 1 ]]; then
  checkdir="$(mktemp -d)"
  trap 'rm -rf "$checkdir"' EXIT
fi

# check_or_keep SUITE_NAME BASELINE CURRENT: in check mode, gate CURRENT
# against BASELINE; otherwise CURRENT already is the baseline path.
check_or_keep() {
  if [[ "$check" -eq 1 ]]; then
    echo "checking $1 against $2"
    python3 "$repo/tools/bench_check.py" --suite "$1" "$2" "$3"
  else
    echo "wrote $3"
  fi
}

cmake -B "$repo/build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
if [[ "$run_micro" -eq 1 ]]; then
  cmake --build "$repo/build" -j "$jobs" --target micro

  micro_out="$out"
  [[ "$check" -eq 1 ]] && micro_out="$checkdir/kernels.json"
  "$repo/build/bench/micro" \
    --benchmark_filter="$filter" \
    --benchmark_out="$micro_out" \
    --benchmark_out_format=json \
    --benchmark_repetitions=1

  check_or_keep kernels "$out" "$micro_out"
fi

if [[ "$run_net" -eq 1 ]]; then
  cmake --build "$repo/build" -j "$jobs" --target micro

  net_out="$repo/BENCH_net.json"
  [[ "$check" -eq 1 ]] && net_out="$checkdir/net.json"
  "$repo/build/bench/micro" \
    --benchmark_filter="$net_filter" \
    --benchmark_out="$net_out" \
    --benchmark_out_format=json \
    --benchmark_repetitions=1

  check_or_keep net "$repo/BENCH_net.json" "$net_out"
fi

if [[ "$run_scale" -eq 1 ]]; then
  # Scale-pipeline suite (DESIGN.md §5h): full sharded clustering and the
  # incremental re-cluster cycle at 10k / 100k / 1M synthetic clients. The
  # committed BENCH_scale.json pins the headline criterion — a 100k-client
  # incremental re-selection cycle under one second.
  cmake --build "$repo/build" -j "$jobs" --target scale_bench

  scale_out="$repo/BENCH_scale.json"
  [[ "$check" -eq 1 ]] && scale_out="$checkdir/scale.json"
  "$repo/build/bench/scale_bench" \
    --benchmark_out="$scale_out" \
    --benchmark_out_format=json \
    --benchmark_repetitions=1

  check_or_keep scale "$repo/BENCH_scale.json" "$scale_out"
fi
