// The engine's dispatch seam: how one round's local-training jobs execute.
//
// FederatedTrainer describes each selected client's work as a TrainJobSpec
// (client id, forked RNG stream, FedProx work fraction) and hands the batch
// to a RoundDispatcher. Two implementations:
//   * InProcessDispatcher — the classic simulation path: train every job on
//     the thread pool in this process. This is the default and is
//     bit-identical to the pre-seam engine (pinned by
//     EngineFaults.DefaultPathBitIdenticalToPrePRPinnedRun).
//   * TransportDispatcher (net_driver.hpp) — serialize each job as a
//     TrainJob frame, ship it over a net::Transport, and collect
//     ClientUpdate frames; workers may be threads (loopback) or processes
//     (TCP).
//
// The seam carries everything a worker needs to reproduce in-process
// training exactly — notably the forked RNG seed — so WHERE a job runs
// never changes WHAT it computes.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/data/partition.hpp"
#include "src/fl/client.hpp"
#include "src/fl/compression.hpp"
#include "src/fl/selector.hpp"
#include "src/nn/model.hpp"

namespace haccs::fl {

/// One client's local-training order for this round.
struct TrainJobSpec {
  std::size_t slot = 0;       ///< index into the round's dispatch vector
  std::size_t client_id = 0;
  std::size_t epoch = 0;
  std::uint64_t rng_seed = 0; ///< the engine's forked per-client stream
  double work_fraction = 1.0; ///< FedProx partial work (1.0 under FedAvg)
};

/// What came back for one job.
struct TrainOutcome {
  /// True when a usable update arrived. False means a transport-level
  /// failure (never happens in-process); `failure` says which kind.
  bool delivered = false;
  FailureKind failure = FailureKind::Crash;
  /// True when the dispatcher already folded this update into a
  /// PartialAggregate (grouped / hierarchical aggregation, §5j): `updated`
  /// is then empty and the engine does bookkeeping only. Pre-aggregated
  /// updates were validated downstream with the engine's exact arithmetic;
  /// gradient-delta selector reports and engine-side post-receipt fault
  /// corruption are unsupported on this path.
  bool pre_aggregated = false;
  /// Updated parameters (post-compression reconstruction), same length as
  /// the global vector. Empty when pre_aggregated.
  std::vector<float> updated;
  /// FedAvg weight from the wire (sample count). Transport dispatchers fill
  /// it for the grouped fold; the engine keeps pricing weights from its own
  /// dataset, so the two are cross-checked, never mixed.
  double weight = 0.0;
  LocalTrainResult result;
};

/// One group's weighted running sum — the unit hierarchical FedAvg ships
/// upstream (DESIGN.md §5j). `sum` is Σ weight_i · updated_i accumulated in
/// f64 with vec::accumulate_scaled, i.e. the engine's own FedAvg loop
/// restricted to the group's slots in slot order. Weights are integer
/// sample counts, so `weight` is exact in f64 and the total is independent
/// of how clients were grouped.
struct PartialAggregate {
  std::vector<double> sum;
  double weight = 0.0;
  std::size_t updates = 0;
};

/// Folds one reconstructed update into `agg` with the engine's exact
/// aggregation arithmetic (diff → norm validation → accumulate_scaled).
/// Returns false when the delta fails `update_is_valid(max_update_norm)`
/// — the caller maps that onto the same rejected-update accounting the
/// engine's own validation uses. `agg.sum` is lazily sized on first fold.
bool fold_into_partial(PartialAggregate& agg, std::span<const float> updated,
                       std::span<const float> global_params, double weight,
                       double max_update_norm);

/// The grouped post-collection fold (§5j), shared by the flat root's
/// agg_groups mode and the mid tier: walks `jobs` in order (slot order, the
/// fold order both tiers pin) and folds each delivered update into
/// partials[group_of(client_id)] with fold_into_partial. A validation
/// reject becomes an undelivered CorruptUpdate outcome, the engine's own
/// accounting for it; a folded outcome becomes pre_aggregated. Either way
/// the outcome's update is released.
void fold_groups(std::span<const TrainJobSpec> jobs,
                 std::span<const float> global_params,
                 std::span<TrainOutcome> outcomes,
                 std::span<PartialAggregate> partials,
                 const std::function<std::size_t(std::size_t)>& group_of,
                 double max_update_norm);

/// Executes one round's jobs. `outcomes` is pre-sized to the round's
/// dispatch count; implementations fill outcomes[job.slot] for every job
/// (and only those slots).
class RoundDispatcher {
 public:
  virtual ~RoundDispatcher() = default;
  virtual void execute(std::span<const TrainJobSpec> jobs,
                       const std::vector<float>& global_params,
                       std::vector<TrainOutcome>& outcomes) = 0;

  /// Non-null when this dispatcher pre-aggregates: the last execute()'s
  /// per-group partial sums, in group order. The engine folds them into
  /// its accumulator in that order — for any grouping, the per-element add
  /// sequence is then identical to a flat dispatcher using the same groups,
  /// which is what makes hierarchical and flat grouped FedAvg bit-identical
  /// (§5j). Classic dispatchers return nullptr and are untouched.
  virtual const std::vector<PartialAggregate>* partials() const {
    return nullptr;
  }
};

/// The local-training recipe a dispatcher (or remote worker) needs; a
/// subset of EngineConfig, split out so workers can be configured without
/// the engine.
struct LocalWorkConfig {
  LocalTrainConfig local;
  bool fedprox = false;   ///< LocalAlgorithm::FedProx
  double fedprox_mu = 0.01;
  CompressionConfig compression;
};

/// Trains every job on the calling process's thread pool — the simulation's
/// classic path. Holds the per-client error-feedback residuals for update
/// compression (one instance per training run, like the engine's old
/// residual table).
class InProcessDispatcher final : public RoundDispatcher {
 public:
  InProcessDispatcher(const data::FederatedDataset& dataset,
                      std::function<nn::Sequential()> model_factory,
                      LocalWorkConfig config);

  void execute(std::span<const TrainJobSpec> jobs,
               const std::vector<float>& global_params,
               std::vector<TrainOutcome>& outcomes) override;

 private:
  const data::FederatedDataset& dataset_;
  std::function<nn::Sequential()> model_factory_;
  LocalWorkConfig config_;
  std::vector<std::vector<float>> residuals_;
};

/// Shared by both dispatchers and the remote worker: run one job's local
/// training + compression against `global_params` and return the updated
/// parameter vector (post-compression reconstruction) plus train stats.
/// `residual` is the client's error-feedback buffer. When `compressed_out`
/// is non-null and compression is on, it receives the wire-form compressed
/// update (what a remote worker serializes).
TrainOutcome run_local_job(const TrainJobSpec& job,
                           const data::Dataset& train_data,
                           nn::Sequential& model,
                           const std::vector<float>& global_params,
                           const LocalWorkConfig& config,
                           std::vector<float>& residual,
                           CompressedUpdate* compressed_out = nullptr);

}  // namespace haccs::fl
