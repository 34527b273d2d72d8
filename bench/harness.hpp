// Shared experiment harness for the paper-reproduction benchmarks.
//
// Every bench binary builds a workload through ExperimentConfig, runs the
// five client-selection strategies of §V-A on an identical substrate (same
// data, device profiles, dropout draws), and prints paper-style rows plus
// the paper's expectation for that figure/table. Pass --full for the paper's
// 28x28/32x32 image sizes (slower); the default uses 16x16 images so the
// whole suite completes quickly on one core — orderings are preserved.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/flags.hpp"
#include "src/core/haccs_system.hpp"
#include "src/core/selector_registry.hpp"
#include "src/fl/engine.hpp"
#include "src/sim/dropout.hpp"

namespace haccs::bench {

/// Which synthetic dataset family a bench uses (DESIGN.md §4 substitution 1).
enum class DatasetKind { MnistLike, FemnistLike, CifarLike };

DatasetKind parse_dataset(const std::string& name);
std::string to_string(DatasetKind kind);

struct ExperimentConfig {
  DatasetKind dataset = DatasetKind::FemnistLike;
  std::size_t classes = 10;
  bool full_size = false;         ///< paper-size images vs fast 16x16
  std::size_t num_clients = 50;   ///< paper §V-A testbed
  std::size_t clients_per_round = 10;
  std::size_t rounds = 240;
  std::size_t min_samples = 90;
  std::size_t max_samples = 210;
  std::size_t test_samples = 30;
  std::size_t eval_every = 5;
  double learning_rate = 0.08;
  std::size_t local_epochs = 1;
  double noise_scale = 2.0;  ///< difficulty knob (multiplies preset noise)
  std::uint64_t seed = 1;

  /// Builds the generator for the configured dataset/size.
  data::SyntheticImageGenerator make_generator() const;

  /// Engine config matching this experiment (latency model sized to the
  /// MLP the default factory builds).
  fl::EngineConfig make_engine_config(const data::FederatedDataset& fed) const;

  /// Throws std::invalid_argument when the engine would refuse this
  /// experiment's config (fl::check_engine_config) — before any data is
  /// generated.
  void check() const;

  /// Reads the standard sweep flags (--dataset, --full, --rounds, --seed,
  /// --clients, --per-round; counts refuse negatives) plus the telemetry
  /// flags shared by every binary that links the harness: --trace=FILE
  /// (Chrome trace JSON), --metrics=FILE (metrics snapshot JSON),
  /// --events=FILE (per-round JSONL), --log-level=error|warn|info|debug
  /// (apply_log_level: the HACCS_LOG environment variable when absent).
  /// Telemetry files are flushed automatically at process exit
  /// (obs::configure registers an atexit hook), so bench mains need no
  /// explicit teardown.
  void apply_flags(const Flags& flags);

  /// Partition config with the experiment's client counts, sample ranges,
  /// and the default per-client style jitter (the stand-in for natural
  /// per-device feature heterogeneity — DESIGN.md §4).
  data::PartitionConfig make_partition_config() const;
};

/// One named strategy run.
struct StrategyRun {
  std::string name;  ///< the selector's display name (e.g. "HACCS-P(y)")
  fl::TrainingHistory history;
};

/// Builds the selector registered as `slug` (core::selector_names) over
/// `fed`, with the engine's initial loss and round count.
std::unique_ptr<fl::ClientSelector> make_selector(
    const std::string& slug, const data::FederatedDataset& fed,
    const fl::EngineConfig& engine_config,
    const core::HaccsConfig& haccs_config);

/// Runs random / tifl / oort / haccs-py / haccs-pxy on the same substrate.
/// `haccs_config` seeds both HACCS variants (the summary kind is overridden
/// per variant). Optional dropout schedule applies to all.
std::vector<StrategyRun> run_all_strategies(
    const data::FederatedDataset& fed, const fl::EngineConfig& engine_config,
    const core::HaccsConfig& haccs_config,
    const sim::DropoutSchedule* dropout = nullptr);

/// Runs the single strategy registered as `slug`.
StrategyRun run_strategy(const std::string& slug,
                         const data::FederatedDataset& fed,
                         const fl::EngineConfig& engine_config,
                         const core::HaccsConfig& haccs_config,
                         const sim::DropoutSchedule* dropout = nullptr);

/// Prints a TTA summary table: one row per strategy, one column per target
/// accuracy, plus final accuracy. Returns TTA values keyed by
/// (strategy, target).
std::map<std::string, std::map<double, double>> print_tta_table(
    const std::vector<StrategyRun>& runs, const std::vector<double>& targets,
    const std::string& csv_path = "");

/// Prints accuracy-vs-time curves (the Fig. 5/6 series) at each recorded
/// evaluation point.
void print_curves(const std::vector<StrategyRun>& runs,
                  const std::string& csv_path = "");

/// Standard banner: experiment id, workload description, paper expectation.
void print_header(const std::string& experiment, const std::string& workload,
                  const std::string& paper_expectation);

}  // namespace haccs::bench
