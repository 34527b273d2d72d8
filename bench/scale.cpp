// Scaling benchmarks for the sketch → ANN-prune → shard → merge pipeline
// (DESIGN.md §5h). The committed baseline is BENCH_scale.json; regenerate
// with tools/bench.sh --scale-only and commit the diff alongside any change
// to src/scale. tools/bench.sh --check compares a fresh run against the
// baseline with a noise threshold.
//
// The workload is synthetic sketch rows around `kArchetypes` well-separated
// distribution archetypes — the regime HACCS targets (many clients, few
// distinct data distributions). Exact distances are sketch-space distances:
// the benchmarks isolate the *orchestration* cost (LSH, sharding, merge,
// incremental bookkeeping), which is what src/scale owns; summary-distance
// kernels are covered by the micro suite.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "src/clustering/dbscan.hpp"
#include "src/common/rng.hpp"
#include "src/common/threadpool.hpp"
#include "src/scale/incremental.hpp"
#include "src/scale/scale.hpp"

namespace haccs::scale {
namespace {

constexpr std::size_t kDim = 32;
constexpr std::size_t kArchetypes = 16;

std::vector<float> archetype_row(std::size_t archetype, double spread) {
  std::vector<float> row(kDim, 0.0f);
  row[archetype % kDim] = static_cast<float>(std::sqrt(1.0 - spread));
  row[(archetype + 1) % kDim] = static_cast<float>(std::sqrt(spread));
  return row;
}

SketchMatrix synthetic_sketches(std::size_t n, Rng& rng) {
  SketchMatrix m(kDim);
  m.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    m.append(archetype_row(i % kArchetypes, 0.02 * rng.uniform()));
  }
  return m;
}

ClusterFn bench_cluster_fn() {
  return [](const clustering::NeighborIndex& index) {
    return clustering::dbscan(index, {.eps = 0.25, .min_pts = 2});
  };
}

ScaleConfig bench_config() {
  ScaleConfig config;
  config.shard_size = 1024;
  config.exact_cutoff = 256;
  return config;
}

/// Full batch clustering at 10k / 100k / 1M clients.
void BM_ScaleClusterSharded(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  const auto sketches = synthetic_sketches(n, rng);
  const auto exact = [&sketches](std::size_t i, std::size_t j) {
    return sketch_distance(sketches, i, j);
  };
  const auto cluster = bench_cluster_fn();
  const auto config = bench_config();
  for (auto _ : state) {
    ScaleStats stats;
    auto labels = cluster_sharded(sketches, exact, cluster, config, &stats);
    benchmark::DoNotOptimize(labels.data());
    state.counters["exact_distances"] =
        static_cast<double>(stats.exact_distances);
    state.counters["candidate_pairs"] =
        static_cast<double>(stats.candidate_pairs);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ScaleClusterSharded)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);
// 1M gets a single timed iteration: one pass is seconds, and the acceptance
// criterion is "completes with bounded memory", not per-iteration variance.
BENCHMARK(BM_ScaleClusterSharded)
    ->Arg(1'000'000)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

/// Shard fan-out thread sweep: the same 100k-client batch clustering on an
/// explicitly sized pool (1/2/4/8 working threads through cluster_sharded's
/// pool seam). Labels are width-invariant (shards are independent); the sweep
/// measures how far the per-shard parallel_for actually scales on the host
/// — on a single-core machine all four entries should be flat, which is
/// itself the signal (no phantom speedup from oversubscription).
void BM_ScaleClusterShardedThreads(benchmark::State& state) {
  constexpr std::size_t kClients = 100'000;
  const auto threads = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  const auto sketches = synthetic_sketches(kClients, rng);
  const auto exact = [&sketches](std::size_t i, std::size_t j) {
    return sketch_distance(sketches, i, j);
  };
  const auto cluster = bench_cluster_fn();
  const auto config = bench_config();
  // parallel_for runs a chunk on the calling thread, so `threads` working
  // threads are the caller plus threads - 1 workers; ThreadPool(0) runs
  // inline for 1.
  ThreadPool pool(threads - 1);
  for (auto _ : state) {
    auto labels =
        cluster_sharded(sketches, exact, cluster, config, nullptr, &pool);
    benchmark::DoNotOptimize(labels.data());
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.SetItemsProcessed(state.iterations() * kClients);
}
BENCHMARK(BM_ScaleClusterShardedThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Incremental re-selection at an established population: one selection
/// round's worth of churn (tens of leave/join/update events — FL rounds see
/// dozens of device transitions, not thousands) followed by the dirty-shard
/// recompute + merge. Only shards touched by churn re-cluster; the rest
/// reuse cached results. The 100k-client entry is the PR's headline
/// criterion (< 1s per cycle, vs ~1.5s for a from-scratch rebuild).
void BM_ScaleIncrementalRecluster(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t churn = 16;
  Rng rng(11);
  auto config = bench_config();
  config.dirty_threshold = 0.0;  // every cycle recomputes (worst case)
  IncrementalClusterer* handle = nullptr;
  const auto exact = [&handle](std::size_t i, std::size_t j) {
    return sketch_distance(handle->sketches(), i, j);
  };
  IncrementalClusterer inc(kDim, exact, bench_cluster_fn(), config);
  handle = &inc;
  for (std::size_t i = 0; i < n; ++i) {
    inc.add_client(archetype_row(i % kArchetypes, 0.02 * rng.uniform()));
  }
  inc.rebuild();

  for (auto _ : state) {
    for (std::size_t i = 0; i < churn; ++i) {
      const auto victim = rng.uniform_index(n);
      if (inc.alive(victim)) inc.remove_client(victim);
    }
    while (inc.size() < n) {
      inc.add_client(archetype_row(rng.uniform_index(kArchetypes),
                                   0.02 * rng.uniform()));
    }
    for (std::size_t i = 0; i < churn; ++i) {
      const auto victim = rng.uniform_index(n);
      if (inc.alive(victim)) {
        inc.update_client(victim, archetype_row(rng.uniform_index(kArchetypes),
                                                0.02 * rng.uniform()));
      }
    }
    benchmark::DoNotOptimize(inc.recompute_if_dirty());
  }
  state.counters["shards"] = static_cast<double>(inc.shard_count());
  state.SetItemsProcessed(state.iterations() * churn * 3);
}
BENCHMARK(BM_ScaleIncrementalRecluster)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScaleIncrementalRecluster)
    ->Arg(1'000'000)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace haccs::scale

BENCHMARK_MAIN();
