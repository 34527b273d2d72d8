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
#include <mutex>
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
  /// updates were validated downstream with the engine's own fold; with no
  /// delta left, the selector gets no report_update for them, and the
  /// engine refuses simulated corruption on such a dispatcher.
  bool pre_aggregated = false;
  /// Updated parameters (post-compression reconstruction), same length as
  /// the global vector. Empty when pre_aggregated. The engine keeps its
  /// outcomes across rounds, so a dispatcher that writes in place (as the
  /// in-process one does) reuses this storage every round.
  std::vector<float> updated;
  /// FedAvg weight from the wire (sample count). Transport dispatchers fill
  /// it for the grouped fold; the engine keeps pricing weights from its own
  /// dataset, so the two are cross-checked, never mixed.
  double weight = 0.0;
  LocalTrainResult result;

  /// Back to a fresh outcome, keeping `updated`'s storage.
  void reset();
};

/// One group's weighted running sum — the unit hierarchical FedAvg ships
/// upstream (DESIGN.md §5j). `sum` is Σ weight_i · updated_i accumulated in
/// f64, i.e. the engine's own FedAvg loop restricted to the group's slots
/// in slot order; it is empty when the group folded nothing. Weights are
/// integer sample counts, so `weight` is exact in f64 and the total is
/// independent of how clients were grouped.
struct PartialAggregate {
  std::vector<double> sum;
  double weight = 0.0;
  std::size_t updates = 0;
};

/// One slot's input to fold_updates, and its verdict.
struct FoldSlot {
  std::span<float> updated;        ///< empty = nothing to fold
  double weight = 0.0;
  std::size_t group = 0;           ///< index into the partials
  bool accepted = false;           ///< out: validated and folded
};

/// The FedAvg fold, the one the engine's flat rounds, the grouped flat root
/// and the mid tier all run. Each non-empty slot is validated as
/// `update_is_valid(updated - global_params, max_update_norm)`; the
/// accepted ones are summed, partials[group].sum = Σ weight · updated in
/// f64. Every partial is rebuilt from this call's slots alone, its `sum`
/// storage reused (so a caller that keeps its partials across rounds never
/// reallocates them), and a group that accepts nothing ends with an empty
/// sum. With `leave_deltas`, each accepted slot's `updated` is overwritten
/// by its delta, updated - global_params (the float subtraction of
/// vec::diff), while it is in cache for the sum.
///
/// Two passes on the thread pool: validation in parallel over slots (the
/// delta is computed on the fly, never stored), then the sums in parallel
/// over parameter ranges. Each element adds its group's accepted slots in
/// slot order, so the result does not depend on the pool's width and is
/// bit-identical to a serial slot-by-slot fold.
void fold_updates(std::span<FoldSlot> slots,
                  std::span<const float> global_params,
                  std::span<PartialAggregate> partials,
                  double max_update_norm, bool leave_deltas = false);

/// The grouped post-collection fold (§5j), shared by the flat root's
/// agg_groups mode and the mid tier: folds each delivered update of `jobs`
/// into partials[group_of(client_id)] with fold_updates (slot order, the
/// fold order both tiers pin). A validation reject becomes an undelivered
/// CorruptUpdate outcome, the engine's own accounting for it; a folded
/// outcome becomes pre_aggregated. Either way the outcome's `updated` is
/// emptied.
void fold_groups(std::span<const TrainJobSpec> jobs,
                 std::span<const float> global_params,
                 std::span<TrainOutcome> outcomes,
                 std::span<PartialAggregate> partials,
                 const std::function<std::size_t(std::size_t)>& group_of,
                 double max_update_norm);

/// Parameters per range when a round's sums are built or divided in
/// parallel: one range of a group's f64 sum (32 KiB) stays in cache while
/// every accepted slot streams in.
inline constexpr std::size_t kFoldRange = 4096;

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

/// The order in which InProcessDispatcher's lanes claim `jobs`, as indices
/// into `jobs`: longest first by estimated cost, ties by slot. A job's cost
/// is its client's local batches, ceil(train size / batch_size) × epochs,
/// times its work_fraction.
std::vector<std::size_t> longest_first(std::span<const TrainJobSpec> jobs,
                                       const data::FederatedDataset& dataset,
                                       const LocalTrainConfig& local);

/// Trains every job on the calling process's thread pool — the simulation's
/// classic path. Holds the per-client error-feedback residuals for update
/// compression (one instance per training run, like the engine's old
/// residual table), one model from `model_factory`, and a free list of its
/// clones, so the models' buffers live across jobs and rounds.
///
/// A round runs min(jobs, pool threads + 1) lanes through parallel_for
/// (one inline lane when called from inside a pool task). Each lane claims
/// jobs in longest_first order from one atomic cursor, and takes a clone
/// from the free list (cloning anew only when it is empty) for its first
/// claim and returns it when the cursor runs out. parallel_for's static
/// split would deal the jobs out by slot, so one lane could draw three big
/// clients while another idles; with the cursor, a lane that finishes early
/// takes the next job. Each job writes only outcomes[job.slot], and its
/// result does not depend on the lane or the clone, so every bit is the
/// same as under any other schedule.
class InProcessDispatcher final : public RoundDispatcher {
 public:
  InProcessDispatcher(const data::FederatedDataset& dataset,
                      std::function<nn::Sequential()> model_factory,
                      LocalWorkConfig config);

  void execute(std::span<const TrainJobSpec> jobs,
               const std::vector<float>& global_params,
               std::vector<TrainOutcome>& outcomes) override;

 private:
  /// An idle clone from the free list, or a fresh one when it is empty.
  nn::Sequential take_model();

  const data::FederatedDataset& dataset_;
  const nn::Sequential prototype_;
  LocalWorkConfig config_;
  std::vector<std::vector<float>> residuals_;
  std::mutex models_mutex_;
  std::vector<nn::Sequential> idle_models_;  ///< clones between jobs
};

/// Shared by both dispatchers and the remote worker: run one job's local
/// training + compression against `global_params`, write the updated
/// parameter vector (post-compression reconstruction) into `updated`,
/// reusing its storage, and return the train stats. `model` is overwritten
/// with `global_params` first, so any model of the right shape will do.
/// `residual` is the client's error-feedback buffer. When `compressed_out`
/// is non-null and compression is on, it receives the wire-form compressed
/// update (what a remote worker serializes).
LocalTrainResult run_local_job(const TrainJobSpec& job,
                               const data::Dataset& train_data,
                               nn::Sequential& model,
                               const std::vector<float>& global_params,
                               const LocalWorkConfig& config,
                               std::vector<float>& residual,
                               std::vector<float>& updated,
                               CompressedUpdate* compressed_out = nullptr);

}  // namespace haccs::fl
