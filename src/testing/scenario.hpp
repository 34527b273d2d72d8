// Seeded scenario generation for the fuzzing harness (TESTING.md).
//
// A ScenarioSpec is one point in the configuration cross-product the system
// supports: dataset shape x partitioner x selector x compression x fault
// model x clustering algorithm x DP budget x scheduling knobs. Every field
// round-trips through a compact `key=value,...` spec string, so any failure
// the fuzzer finds is replayable from a single command line:
//
//   haccs_fuzz --replay "seed=41,selector=haccs-py,crash=0.2,..."
//
// generate_scenario(seed) draws a spec from the space as a pure function of
// the seed — the same seed always produces the same scenario, on every
// machine. Dimensions are drawn independently so the sweep covers the
// pairwise interactions (faults x compression, DP x clustering, ...) that
// example-based tests cannot enumerate.
//
// The workload vocabulary a spec shares with haccs_run is named, checked
// and built where each concept lives: partition kinds in src/data, hostile
// shapes and availability in src/sim/hostile.hpp, the DP budget and
// mechanism in src/stats/privacy.hpp. Values parse through the Flags value
// parsers. This file keeps the keys, the generator and the fuzz-only bounds.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/core/haccs_config.hpp"
#include "src/data/partition.hpp"
#include "src/fl/compression.hpp"
#include "src/fl/engine.hpp"
#include "src/fl/selector.hpp"
#include "src/net/chaos.hpp"
#include "src/sim/hostile.hpp"

namespace haccs::testing {

struct ScenarioSpec {
  std::uint64_t seed = 1;

  // Workload shape (kept tiny: the fuzzer's value is breadth, not depth).
  std::size_t clients = 10;
  std::size_t per_round = 3;
  std::size_t rounds = 4;
  std::size_t classes = 6;
  std::size_t image = 10;       ///< square image side
  std::size_t min_samples = 24;
  std::size_t max_samples = 48;
  std::size_t test_samples = 8;

  data::PartitionKind partition = data::PartitionKind::Majority;
  std::size_t klabels = 3;      ///< for PartitionKind::KLabels
  double alpha = 0.5;           ///< Dirichlet concentration
  double rotation = 30.0;       ///< feature-skew rotation, degrees

  std::string selector = "haccs-py";  ///< a selector registry name
  core::ClusterAlgorithm algorithm = core::ClusterAlgorithm::Optics;
  core::Extraction extraction = core::Extraction::Auto;
  stats::DistanceKind distance = stats::DistanceKind::Hellinger;
  double rho = 0.5;

  double epsilon = 0.0;         ///< DP budget; 0 = no noise
  stats::NoiseMechanism mechanism = stats::NoiseMechanism::Laplace;

  fl::CompressionKind compression = fl::CompressionKind::None;
  double topk_fraction = 0.2;

  // Fault / robustness knobs (engine-simulated, seeded).
  double crash_rate = 0.0;
  double corruption_rate = 0.0;
  double straggler_rate = 0.0;
  double overcommit = 0.0;
  double deadline_quantile = 0.0;
  double max_update_norm = 0.0;
  double dropout = 0.0;

  bool fedprox = false;
  /// Loopback worker count used by the transported-dispatch differential.
  std::size_t workers = 2;

  // Transport chaos knobs (per-frame probabilities on every loopback link,
  // both directions). All zero = clean wire; any non-zero switches the
  // transported-dispatch oracle from the bit-identity differential to the
  // chaos-liveness check (a hostile wire legitimately perturbs outcomes).
  double chaos_drop = 0.0;
  double chaos_dup = 0.0;
  double chaos_reorder = 0.0;
  double chaos_corrupt = 0.0;
  double chaos_truncate = 0.0;
  double chaos_disconnect = 0.0;

  // Hostile-world shape (HostileKind::None = benign). `hostile_frac` is the
  // affected fraction (joining cohort / wave trough / dark regions / drifted
  // clients / adversarial cohort); `hostile_at` the epoch the adversity
  // starts; `hostile_span` its duration or wave period.
  sim::HostileKind hostile = sim::HostileKind::None;
  double hostile_frac = 0.3;
  std::size_t hostile_at = 1;
  std::size_t hostile_span = 2;

  bool chaos_enabled() const {
    return chaos_drop > 0.0 || chaos_dup > 0.0 || chaos_reorder > 0.0 ||
           chaos_corrupt > 0.0 || chaos_truncate > 0.0 ||
           chaos_disconnect > 0.0;
  }
};

/// Draws a scenario as a pure function of `seed`.
ScenarioSpec generate_scenario(std::uint64_t seed);

/// Compact one-line `key=value,...` form; emits every field (stable order).
std::string to_spec_string(const ScenarioSpec& spec);

/// Parses a spec string; unknown keys or malformed values throw
/// std::invalid_argument. Omitted keys keep their ScenarioSpec defaults.
ScenarioSpec parse_spec_string(const std::string& text);

/// Sanity bounds the generator guarantees and replayed specs must satisfy
/// (per_round <= clients, rho in [0,1], ...); throws on violation.
void validate_spec(const ScenarioSpec& spec);

// --- Builders: spec -> the production objects the oracles exercise. ---

data::FederatedDataset build_dataset(const ScenarioSpec& spec);
fl::EngineConfig build_engine_config(const ScenarioSpec& spec);
/// The HACCS config the scenario clusters with; `summary` follows the
/// selector's registry entry (P(y) for every non-HACCS selector).
core::HaccsConfig build_haccs_config(const ScenarioSpec& spec);
/// The spec's selector, built through the selector registry.
std::unique_ptr<fl::ClientSelector> build_selector(
    const ScenarioSpec& spec, const data::FederatedDataset& dataset);
/// The deterministic model factory every run of this scenario shares.
std::function<nn::Sequential()> build_model_factory(
    const ScenarioSpec& spec, const data::FederatedDataset& dataset);
/// Chaos knobs in transport form; seeded from spec.seed so a replayed spec
/// injects the identical fault script.
net::ChaosOptions build_chaos_options(const ScenarioSpec& spec);
/// sim::make_availability over the spec's knobs: never null.
std::unique_ptr<sim::DropoutSchedule> build_availability(
    const ScenarioSpec& spec);
/// sim::make_drift_hook over the spec's knobs: empty unless hostile ==
/// Drift. `dataset` must be the pristine build_dataset output and must
/// outlive the hook; runs that share a dataset object must each use a FRESH
/// copy, since the drift mutates it.
std::function<void(std::size_t)> build_drift_hook(const ScenarioSpec& spec,
                                                  data::FederatedDataset& fed);

}  // namespace haccs::testing
