// TreeDispatcher: the root of the hierarchical aggregation tree
// (DESIGN.md §5j).
//
// The engine's RoundDispatcher seam, implemented over A mid-tier aggregator
// transports instead of W worker transports. It is the flat root's code with
// different frames: it takes the same fl::TransportDispatcherConfig and
// collects through the same fl::DispatchCore loop (liveness, heartbeat
// deadline, whole-round budget, status board, trace-shard forwarding —
// net_driver.hpp). Its peers, board rows and liveness edges are
// aggregators.
//
// Fan-out sends each aggregator one SubtreeRound: the global parameters,
// the config's recipe and max_update_norm, the trace context, and its
// subtree's jobs in slot order (that order IS the fold order downstream).
// The mid tier builds each worker's TrainJob from it with
// fl::make_train_job, as the flat root does. Collection waits for one
// SubtreeUpdate per aggregator: its whole f64 partial sum, its weight and
// its per-client stats. partials() hands the engine one
// PartialAggregate per aggregator, in aggregator order — the groups of a
// grouped flat root, arrived over the wire — and the engine's group-order
// merge adds them, so the tree is bit-identical to a flat dispatcher
// running with agg_groups = A.
//
// Failure containment: an aggregator lost before its SubtreeUpdate lands,
// or whose SubtreeRound or SubtreeUpdate the link lost, is salvaged — its
// slots fail as Crash (closed or silent) or Timeout (the budget), everyone
// else's round commits: bitwise what a grouped flat run
// with those workers dead produces. An update is input from outside the
// process, so it counts only when it is self-consistent (a finite sum of
// the model's length, present exactly when a settled stat is delivered,
// and a weight equal to the delivered stats' sample counts); otherwise its
// subtree's slots fail as CorruptUpdate. Its stats settle only the clients
// routed to the aggregator that sent it, each once.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "src/fl/dispatch.hpp"
#include "src/fl/net_driver.hpp"
#include "src/net/messages.hpp"
#include "src/net/transport.hpp"

namespace haccs::hier {

class TreeDispatcher final : public fl::RoundDispatcher {
 public:
  /// `num_workers` is the federation-wide worker count; the aggregator of a
  /// client is (client_id % num_workers) / (num_workers / aggs.size()), so
  /// it must be a multiple of the aggregator count. Throws
  /// std::invalid_argument naming the field for the flat-only settings a
  /// tree cannot honour: quorum_fraction < 1, a reacquire hook (a dead
  /// aggregator stays dead), and agg_groups > 0 (the tree's grouping is its
  /// aggregators). max_update_norm reaches every mid tier's fold.
  TreeDispatcher(std::vector<net::Transport*> aggs,
                 fl::TransportDispatcherConfig config,
                 std::size_t num_workers);

  void execute(std::span<const fl::TrainJobSpec> jobs,
               const std::vector<float>& global_params,
               std::vector<fl::TrainOutcome>& outcomes) override;

  /// One PartialAggregate per aggregator, in aggregator order; an
  /// aggregator that delivered nothing has an empty one (§5j bit-identity
  /// doc in dispatch.hpp).
  const std::vector<fl::PartialAggregate>* partials() const override {
    return &partials_;
  }

  bool agg_alive(std::size_t a) const { return !core_.dead(a); }

 private:
  /// Per-aggregator collection state for one execute() call.
  struct AggRound {
    std::vector<std::size_t> job_indices;  ///< into the jobs span, slot order
    bool participating = false;  ///< alive at fan-out with jobs to run
    std::optional<net::SubtreeUpdateMsg> update;
  };

  std::size_t group_of(std::size_t client_id) const;
  /// Sends each aggregator its SubtreeRound; marks the ones that took it as
  /// participating.
  void fan_out(std::span<const fl::TrainJobSpec> jobs,
               const std::vector<float>& global_params,
               std::vector<AggRound>& rounds,
               std::vector<fl::TrainOutcome>& outcomes);
  /// Settles aggregator a's slots from its SubtreeUpdate and takes its
  /// partial sum, or fails the subtree as CorruptUpdate when the update is
  /// not self-consistent.
  void settle(std::size_t a, AggRound& round,
              std::span<const fl::TrainJobSpec> jobs, std::size_t model_size,
              std::vector<fl::TrainOutcome>& outcomes);

  fl::DispatchCore core_;
  std::size_t num_workers_;
  std::vector<fl::PartialAggregate> partials_;
};

}  // namespace haccs::hier
