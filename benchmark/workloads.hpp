// The benchmark's workloads and the episode runner.
//
// An episode is one complete federated training run built from library
// APIs: generate the federation from a seed, run the clustering preamble,
// construct the trainer, run every round, and read the history. haccs_bench
// (haccs_bench.cpp) repeats episodes and turns them into metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "benchmark/probes.hpp"
#include "src/sim/faults.hpp"
#include "src/stats/summary.hpp"

namespace haccs::benchmark {

struct Workload {
  const char* name = "";
  std::size_t image_size = 28;  ///< femnist-like images, image_size^2 pixels
  double noise_scale = 8.0;     ///< multiplies the preset pixel noise
  std::size_t clients = 50;
  std::size_t per_round = 10;
  std::size_t rounds = 100;
  std::size_t eval_every = 5;
  stats::SummaryKind summary = stats::SummaryKind::Response;
  std::size_t recluster_every = 0;
  double target_accuracy = 0.7;
  /// Lowest acceptable final accuracy: a run below it fails its checks.
  double accuracy_floor = 0.0;
  /// Routes rounds over loopback TCP to WorkerLoop threads instead of the
  /// in-process thread pool.
  bool serving = false;
  double dropout = 0.0;
  sim::FaultModelConfig faults{.crash_rate = 0.0};
  double overcommit = 0.0;
  double deadline_quantile = 0.0;
  double max_update_norm = 0.0;
  /// Episodes per measurement cycle, each on its own seed derived from the
  /// run's --seed; medians over them damp seed-to-seed variation.
  std::size_t episodes = 1;
};

/// The workload called `name`; throws std::invalid_argument naming the
/// known workloads otherwise.
const Workload& find_workload(const std::string& name);

/// The seed of episode `index` of a run started with `seed`.
std::uint64_t episode_seed(std::uint64_t seed, std::size_t index);

/// Worker threads (and TCP connections) of a serving episode.
inline constexpr std::size_t kServingWorkers = 3;

struct EpisodeOptions {
  std::uint64_t seed = 1;
  /// Wrap selector, dispatcher and transports in the probes. Off only for
  /// the self-check's reference run.
  bool probes = true;
  /// Non-null: record spans (the traced run).
  Tracer* tracer = nullptr;
  /// Overrides the workload's round count (0 = keep).
  std::size_t rounds = 0;
  /// Overrides the workload's re-cluster cadence (0 = keep).
  std::size_t recluster_every = 0;
  /// Forces in-process training even for a serving workload.
  bool in_process = false;
};

struct EpisodeResult {
  double setup_s = 0.0;  ///< episode start -> first round starts
  double run_s = 0.0;    ///< FederatedTrainer::run wall time
  double wall_tta_s = 0.0;
  double sim_tta_s = 0.0;
  double final_accuracy = 0.0;
  std::size_t rounds = 0;
  std::size_t dispatched = 0;
  std::size_t aggregated = 0;
  std::size_t crashed = 0;
  std::size_t late = 0;
  std::size_t rejected = 0;
  std::size_t clusters = 0;
  std::vector<double> round_ms;   ///< per round, in epoch order
  std::vector<bool> eval_round;   ///< whether that round evaluated
  /// fl::round_event_json per round with phase timings zeroed.
  std::vector<std::string> events;
  /// FNV-1a over `events` and the final parameters' bytes.
  std::uint64_t history_hash = 0;
  /// Probe counters (zero when probes are off).
  std::size_t failure_reports = 0;
  std::vector<std::size_t> select_epochs;
  std::size_t root_frames_sent = 0;
  std::size_t root_frames_received = 0;
  std::size_t root_bytes_sent = 0;
  std::size_t root_bytes_received = 0;
  std::size_t history_downlink_bytes = 0;
  std::size_t history_uplink_bytes = 0;
  std::uint64_t worker_idle_ns = 0;
  /// Traced runs: spans of every track, and whether the separately timed
  /// preamble stages reproduced the selector's clustering.
  std::vector<SpanRecord> spans;
  bool stages_match_selector = true;
};

EpisodeResult run_episode(const Workload& workload,
                          const EpisodeOptions& options);

}  // namespace haccs::benchmark
