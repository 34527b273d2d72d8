// MidTierAggregator: the middle tier of the hierarchical aggregation tree
// (DESIGN.md §5j).
//
// One aggregator process fronts a contiguous slice of the federation's
// workers. Downstream it runs a FanInServer (poll/epoll multiplexing, one
// socket per worker, per-connection buffering and backpressure); upstream it
// speaks the same framed protocol to the root over a single Transport:
//
//   * handshake — admit every subtree worker with the root's own
//     frame-level checks (check_worker_hello, check_summary in fleet.hpp),
//     staging each connection's summaries until the last one arrives, then
//     announce the subtree with TopologyHello and relay each summary once.
//     A bad Hello or Summary costs only its connection.
//   * rounds — the root's SelectNotice opens a round and numbers its slots
//     (the subtree's clients in slot order); TrainJob frames are relayed
//     verbatim to the owning worker (client_id % num_workers), and
//     ClientUpdates settle through the flat root's fl::UpdateLedger.
//   * settle — fl::fold_groups folds the delivered updates in slot order
//     into ONE weighted partial sum, which goes upstream as bounded
//     SubtreeChunk frames followed by a SubtreeUpdate trailer carrying the
//     per-client stats, so the root's engine keeps its normal bookkeeping
//     without the raw updates.
//
// Since settlement and fold are the flat root's code, a tree run aggregates
// bit-identically to a grouped flat run for every update kind, and the root
// cannot tell a tree run's failures from a flat run's: a closed worker
// fails what it owes as Crash, a corrupt frame its oldest owed client as
// CorruptUpdate, the round deadline every straggler as Timeout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/fl/dispatch.hpp"
#include "src/fl/net_driver.hpp"
#include "src/net/fanin.hpp"
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
  /// fold rejects exactly the updates the engine itself would reject.
  double max_update_norm = 0.0;
  /// Upstream liveness cadence (0 = no heartbeats).
  int heartbeat_interval_ms = 0;
  /// Budget from round open to settle; stragglers fail as Timeout rather
  /// than wedging the subtree (0 = wait forever).
  int round_timeout_ms = 30000;
  /// Budget for the downstream Hello/Summary handshake.
  int handshake_timeout_ms = 60000;
  net::FanInOptions fanin;
  /// Live-status mirror (rows = subtree workers, indexed from 0); the
  /// `queued` gauge mirrors FanInServer::outbound_queued. May be null.
  fl::ServingStatusBoard* status_board = nullptr;
};

struct MidTierStats {
  std::size_t rounds = 0;            ///< rounds settled upstream
  std::size_t folded = 0;            ///< updates folded into partials
  std::size_t rejected = 0;          ///< updates failing norm validation
  std::size_t worker_failures = 0;   ///< downstream closes/sheds observed
  std::uint64_t upstream_bytes_sent = 0;
  std::uint64_t upstream_bytes_received = 0;
};

class MidTierAggregator {
 public:
  explicit MidTierAggregator(const MidTierConfig& config);

  std::uint16_t port() const { return fanin_.port(); }
  std::uint32_t worker_begin() const { return worker_begin_; }
  std::uint32_t worker_end() const { return worker_end_; }
  const MidTierStats& stats() const { return stats_; }

  /// Runs the aggregator to completion: downstream handshake, TopologyHello
  /// + summary relay, then rounds until the root sends Shutdown (relayed to
  /// the workers) or the upstream link dies. Returns false on handshake or
  /// upstream failure.
  bool run(net::Transport& upstream);

 private:
  /// One open round, scoped by the root's SelectNotice.
  struct Round {
    bool open = false;
    /// Opened by a TrainJob because the SelectNotice was lost: slots are
    /// numbered in arrival order and the round settles only on deadline.
    bool implicit = false;
    std::uint64_t epoch = 0;
    std::vector<std::uint32_t> clients;  ///< the subtree's clients by slot
    std::unordered_map<std::uint32_t, std::size_t> slot_of;
    std::vector<fl::TrainJobSpec> jobs;      ///< relayed, in slot order
    std::vector<fl::TrainOutcome> outcomes;  ///< by slot
    std::vector<float> global;  ///< captured from the round's first TrainJob
    std::int64_t deadline_ms = -1;
  };

  /// A downstream connection that said Hello. Its worker goes live only
  /// once every summary it owes has arrived and passed the checks.
  struct Session {
    std::size_t local = 0;  ///< worker index within the slice
    std::size_t owed = 0;   ///< summaries still to arrive
    std::vector<net::Frame> summaries;  ///< staged until the last arrives
  };

  bool handshake(net::Transport& upstream);
  void handle_upstream(const net::Frame& frame);
  void handle_downstream(net::Transport& upstream, const net::FanInEvent& ev);
  void handle_hello(std::uint64_t conn, const net::Frame& frame);
  void handle_summary(std::uint64_t conn, const net::Frame& frame);
  /// Makes a session's worker live, replacing (and failing) any older
  /// session of the same worker.
  void go_live(std::uint64_t conn, Session& session);
  /// Closes a refused or replaced connection.
  void drop(std::uint64_t conn);
  /// The live worker behind `conn`, or kNoWorker.
  std::size_t live_worker(std::uint64_t conn) const;
  /// Opens a round, by SelectNotice or (implicit) by a TrainJob.
  void open_round(std::uint64_t epoch, bool implicit);
  /// The open round's slot for `client_id`, numbering it if new.
  std::size_t register_client(std::uint32_t client_id);
  void relay_train_job(const net::Frame& frame);
  /// Folds the round, ships SubtreeChunks + the SubtreeUpdate trailer and
  /// clears the round.
  bool settle_round(net::Transport& upstream);
  bool send_upstream(net::Transport& upstream, const net::Frame& frame);
  void broadcast_downstream(const net::Frame& frame);
  void sync_board(std::size_t local);
  void note_heard(std::size_t local);

  static constexpr std::size_t kNoWorker = static_cast<std::size_t>(-1);

  MidTierConfig config_;
  std::uint32_t worker_begin_ = 0;
  std::uint32_t worker_end_ = 0;
  net::FanInServer fanin_;
  /// Local worker index -> its live connection id (0 = none).
  std::vector<std::uint64_t> conn_of_worker_;
  /// Every connection that said Hello, staging or live.
  std::unordered_map<std::uint64_t, Session> sessions_;
  /// The jobs each local worker owes this round.
  fl::UpdateLedger ledger_;
  /// Each local worker's summaries, relayed after TopologyHello.
  std::vector<std::vector<net::Frame>> summary_frames_;
  bool handshook_ = false;
  Round round_;
  MidTierStats stats_;
};

}  // namespace haccs::hier
