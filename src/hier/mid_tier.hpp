// MidTierAggregator: the middle tier of the hierarchical aggregation tree
// (DESIGN.md §5j).
//
// The mid tier is the flat root of its subtree. One aggregator process
// fronts a contiguous slice of the federation's workers, serves them with
// the flat root's own parts, and talks upstream to the root like one big
// worker over a single Transport:
//
//   * admission — a hier::Fleet over workers [begin, end) runs the root's
//     handshake: a bad Hello, a bad Summary or a duplicate worker id throws
//     FleetError naming the peer before anything goes upstream. The
//     aggregator then announces the subtree with TopologyHello and relays
//     each worker's Summary frames as they came off the wire. Mid-run
//     reconnects are staged by the fleet and claimed through
//     Fleet::reacquire; a bad one costs only its own connection.
//   * rounds — the root's one SubtreeRound carries the round: parameters,
//     recipe and norm bound once, and the subtree's jobs in slot order.
//     Stale and duplicated epochs are ignored; a round naming a client
//     outside the subtree is dropped with a warning. Each worker gets the
//     TrainJob a flat root would build (fl::make_train_job) through a
//     fl::TransportDispatcher over the fleet's transports, which collects
//     and settles the ClientUpdates (fl::DispatchCore, fl::UpdateLedger).
//   * settle — fl::fold_groups folds the delivered updates in slot order,
//     under the round's norm bound, into ONE weighted partial sum, which
//     goes upstream whole in the round's one SubtreeUpdate frame with the
//     per-client stats, so the root's engine keeps its normal bookkeeping
//     without the raw updates.
//   * wind-down — the root's EvalReport is kept; its Shutdown runs
//     Fleet::shut_down downstream and relays each worker's last TraceShard.
//
// Since every part is the flat root's, a tree run aggregates bit-identically
// to a grouped flat run for every update kind, and the root cannot tell a
// tree run's failures from a flat run's: a closed worker fails what it owes
// as Crash, a corrupt frame its oldest owed client as CorruptUpdate, the
// round budget every straggler as Timeout. An fl::HeartbeatThread keeps the
// root's liveness deadline met while the aggregator collects; upstream is
// read only between rounds, so a lost upstream link is noticed after the
// round.
//
// stats() and the hier_* counters count what this aggregator did: a round
// is counted when its SubtreeUpdate is sent, not when the root accepts it.
// A subtree the root salvaged shows in the root's hier_aggs_salvaged_total.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/fl/dispatch.hpp"
#include "src/fl/net_driver.hpp"
#include "src/hier/fleet.hpp"
#include "src/net/messages.hpp"
#include "src/net/topology.hpp"
#include "src/net/transport.hpp"

namespace haccs::hier {

struct MidTierConfig {
  /// The serving tree's shape; this aggregator fronts its workers
  /// topology.slice(agg_id).
  net::Topology topology{1};
  std::uint32_t agg_id = 0;
  /// Upstream liveness cadence (0 = no heartbeats).
  int heartbeat_interval_ms = 0;
  /// Budget for sending a round's jobs and collecting the updates:
  /// stragglers fail as Timeout rather than wedging the subtree (0 = wait
  /// forever).
  int round_timeout_ms = 30000;
  /// Deadline for each downstream accept and handshake frame at startup
  /// (0 = wait forever).
  int handshake_timeout_ms = 60000;
  /// Live-status mirror (rows = subtree workers, indexed from 0; run()
  /// throws std::invalid_argument on fewer rows). May be null.
  fl::ServingStatusBoard* status_board = nullptr;
};

struct MidTierStats {
  std::size_t rounds = 0;            ///< SubtreeUpdates sent upstream
  std::size_t folded = 0;            ///< updates folded into them
  std::size_t rejected = 0;          ///< updates failing norm validation
  std::size_t worker_failures = 0;   ///< workers found closed or dead
  std::uint64_t upstream_bytes_sent = 0;
  std::uint64_t upstream_bytes_received = 0;
};

class MidTierAggregator {
 public:
  /// `accept` yields the subtree workers' connections (a TcpListener in
  /// haccs_agg); it is called again between rounds to take reconnects.
  /// Throws std::invalid_argument for an agg_id outside the topology.
  MidTierAggregator(const MidTierConfig& config, Fleet::Acceptor accept);

  const MidTierStats& stats() const { return stats_; }

  /// Runs the aggregator to completion: downstream admission, TopologyHello
  /// + summary relay, then rounds until the root sends Shutdown or the
  /// upstream link dies. Throws FleetError when a worker is refused or does
  /// not arrive in time; returns false on upstream failure.
  bool run(net::Transport& upstream);

 private:
  enum class Next { Round, Shutdown, Lost };

  /// Admits the subtree, then announces it upstream with its summaries.
  bool announce(net::Transport& upstream);
  /// Serves rounds until the root's Shutdown (true) or upstream loss.
  bool serve(net::Transport& upstream);
  /// Reads upstream until a SubtreeRound to serve arrives, or Shutdown, or
  /// loss.
  Next gather(net::Transport& upstream, net::SubtreeRoundMsg& round);
  /// Fans the round out, collects, folds, and ships the SubtreeUpdate.
  bool settle_round(net::Transport& upstream,
                    fl::TransportDispatcher& dispatcher,
                    const net::SubtreeRoundMsg& round);
  /// Thread-safe: the heartbeat thread sends through it too.
  bool send_upstream(net::Transport& upstream, const net::Frame& frame);

  MidTierConfig config_;
  Fleet fleet_;
  /// The root's wind-down report, kept for the subtree's Shutdown.
  net::EvalReportMsg report_;
  /// Last epoch served; frames for it or earlier are stale.
  std::optional<std::uint64_t> served_epoch_;
  std::atomic<std::uint64_t> upstream_sent_{0};
  MidTierStats stats_;
};

}  // namespace haccs::hier
