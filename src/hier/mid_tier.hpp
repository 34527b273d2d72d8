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
//   * rounds — the root's SelectNotice numbers the round's slots (the
//     subtree's clients in notice order) and its TrainJobs follow. The
//     aggregator reads upstream until it holds a job for every slot, or
//     until round_timeout_ms runs out. Without a notice (lost on a hostile
//     link) slots follow arrival order and the intake closes once upstream
//     is quiet: one fl::kPollSliceMs with no frame, and none partly
//     arrived. A slot whose job never arrived fails as Timeout, and later
//     frames for its epoch are dropped as stale. The jobs then go out verbatim through a
//     fl::TransportDispatcher over the fleet's transports, which collects
//     and settles the ClientUpdates (fl::DispatchCore, fl::UpdateLedger).
//   * settle — fl::fold_groups folds the delivered updates in slot order
//     into ONE weighted partial sum, which goes upstream as bounded
//     SubtreeChunk frames followed by a SubtreeUpdate trailer carrying the
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
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/fl/dispatch.hpp"
#include "src/fl/net_driver.hpp"
#include "src/hier/fleet.hpp"
#include "src/net/messages.hpp"
#include "src/net/transport.hpp"

namespace haccs::hier {

struct MidTierConfig {
  std::uint32_t agg_id = 0;
  std::uint32_t num_aggs = 1;
  /// Federation-wide worker count; this aggregator fronts the contiguous
  /// slice [agg_id * per, (agg_id + 1) * per) with per = num_workers /
  /// num_aggs (num_aggs must divide num_workers).
  std::uint32_t num_workers = 1;
  /// f64 elements per SubtreeChunk — bounds the root's per-peer buffering
  /// to O(chunk_params × aggregators) instead of O(model × aggregators).
  std::size_t chunk_params = 16384;
  /// Update-norm validation threshold; must match EngineConfig's so the
  /// fold rejects exactly the updates the engine itself would reject. The
  /// haccs_agg binary leaves it 0, as the haccs_server root's engine does.
  double max_update_norm = 0.0;
  /// Upstream liveness cadence (0 = no heartbeats).
  int heartbeat_interval_ms = 0;
  /// Budget for a noticed round's job intake, and again for sending the
  /// jobs and collecting the updates: missing jobs and stragglers fail as
  /// Timeout rather than wedging the subtree (0 = wait forever).
  int round_timeout_ms = 30000;
  /// Deadline for each downstream accept and handshake frame at startup
  /// (0 = wait forever).
  int handshake_timeout_ms = 60000;
  /// Live-status mirror (rows = subtree workers, indexed from 0). May be
  /// null.
  fl::ServingStatusBoard* status_board = nullptr;
};

struct MidTierStats {
  std::size_t rounds = 0;            ///< rounds settled upstream
  std::size_t folded = 0;            ///< updates folded into partials
  std::size_t rejected = 0;          ///< updates failing norm validation
  std::size_t worker_failures = 0;   ///< workers found closed or dead
  std::uint64_t upstream_bytes_sent = 0;
  std::uint64_t upstream_bytes_received = 0;
};

class MidTierAggregator {
 public:
  /// `accept` yields the subtree workers' connections (a TcpListener in
  /// haccs_agg); it is called again between rounds to take reconnects.
  MidTierAggregator(const MidTierConfig& config, Fleet::Acceptor accept);

  std::uint32_t worker_begin() const { return worker_begin_; }
  std::uint32_t worker_end() const { return worker_end_; }
  const MidTierStats& stats() const { return stats_; }

  /// Runs the aggregator to completion: downstream admission, TopologyHello
  /// + summary relay, then rounds until the root sends Shutdown or the
  /// upstream link dies. Throws FleetError when a worker is refused or does
  /// not arrive in time; returns false on upstream failure.
  bool run(net::Transport& upstream);

 private:
  /// One round's intake from upstream.
  struct Round {
    std::uint64_t epoch = 0;
    bool noticed = false;  ///< false: the SelectNotice was lost
    std::vector<std::uint32_t> clients;  ///< the subtree's clients by slot
    std::unordered_map<std::uint32_t, std::size_t> slot_of;
    /// Each arrived job and its frame as the root sent it, by slot.
    std::map<std::size_t, std::pair<fl::TrainJobSpec, net::Frame>> jobs;
    std::vector<float> global;  ///< from the round's first TrainJob
  };
  enum class Next { Round, Shutdown, Lost };

  /// Admits the subtree, then announces it upstream with its summaries.
  bool announce(net::Transport& upstream);
  /// Serves rounds until the root's Shutdown (true) or upstream loss.
  bool serve(net::Transport& upstream);
  /// Reads upstream until a round's intake closes, or Shutdown, or loss.
  Next gather(net::Transport& upstream, Round& round);
  /// Fans the round out, collects, folds, and ships the chunks and trailer.
  bool settle_round(net::Transport& upstream,
                    fl::TransportDispatcher& dispatcher, Round& round);
  /// Thread-safe: the heartbeat thread sends through it too.
  bool send_upstream(net::Transport& upstream, const net::Frame& frame);

  MidTierConfig config_;
  std::uint32_t worker_begin_ = 0;
  std::uint32_t worker_end_ = 0;
  Fleet fleet_;
  /// The root's wind-down report, kept for the subtree's Shutdown.
  net::EvalReportMsg report_;
  /// Last epoch served; frames for it or earlier are stale.
  std::optional<std::uint64_t> served_epoch_;
  std::atomic<std::uint64_t> epoch_{0};  ///< echoed in heartbeats
  std::atomic<std::uint64_t> upstream_sent_{0};
  MidTierStats stats_;
};

}  // namespace haccs::hier
