// The protocol driver: FederatedTrainer rounds over a net::Transport.
//
// Three pieces:
//   * TransportDispatcher — the server side of the dispatch seam. Serializes
//     each TrainJobSpec as a TrainJob frame, fans jobs out over one or more
//     worker transports (client_id % workers), and collects ClientUpdate
//     frames within one whole-round budget. Transport failures surface as
//     undelivered outcomes: Corrupt -> FailureKind::CorruptUpdate, Timeout
//     -> Timeout, Closed -> Crash — the engine routes them into
//     ClientSelector::report_failure exactly like simulated faults.
//   * WorkerLoop — the worker side: receive TrainJob, run the identical
//     local training (run_local_job with the job's forked RNG seed), reply
//     with a ClientUpdate whose tensor body is the priced wire form. Holds
//     per-client compression residuals across rounds (and across serve()
//     calls, so a reconnecting worker resumes its error-feedback state).
//   * LoopbackCluster — in-process worker threads over loopback transports:
//     the full protocol (encode, CRC, decode) at memory speed. A loopback
//     run is bit-identical to the direct in-process run for the same seed
//     (pinned in tests/net_test.cpp); examples/haccs_server + haccs_worker
//     run the same driver across real processes over TCP.
//
// Collection is one loop: a round-robin poll, one short slice per worker
// that still owes updates, until every job settles or recv_timeout_ms — the
// whole-round budget — runs out and the remainder fails as Timeout. Serving
// mode (DESIGN.md §5g) adds rules to the same loop: with
// heartbeat_timeout_ms any inbound frame (including Heartbeat) refreshes a
// worker's liveness deadline and a silent worker is escalated to Crash;
// with quorum_fraction < 1 the round commits once a quorum of updates has
// landed instead of blocking on stragglers; with reacquire a dead worker's
// replacement transport rejoins at the next fan-out.
//
// Corrupt-frame attribution: a frame that fails its CRC cannot name its
// client, but workers process jobs strictly FIFO per transport, so the
// damage is charged to the oldest outstanding job on that transport.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/fl/dispatch.hpp"
#include "src/net/chaos.hpp"
#include "src/net/loopback.hpp"
#include "src/net/messages.hpp"
#include "src/net/transport.hpp"
#include "src/obs/trace.hpp"

namespace haccs::fl {

/// Live-status mirror for the exposition endpoint (DESIGN.md §5i): the
/// dispatcher publishes its round/worker state into relaxed atomics as it
/// works and the status server's thread renders to_json() on demand — no
/// lock is ever taken on the round loop. A null board pointer in the
/// dispatcher config (the default) skips even the relaxed stores, keeping
/// the flags-off serving path untouched.
class ServingStatusBoard {
 public:
  struct Worker {
    std::atomic<std::int64_t> last_heard_ms{-1};  ///< steady clock, ms
    std::atomic<bool> alive{true};
    std::atomic<std::uint64_t> outstanding{0};
    std::atomic<std::uint64_t> updates{0};  ///< delivered updates, lifetime
    std::atomic<std::uint64_t> sessions{0}; ///< reacquired transports
    /// Outstanding-frame depth toward this peer (outbound frames queued
    /// behind a slow connection) — the backpressure gauge §5j's fan-in
    /// server enforces its shedding cap against. Blocking transports leave
    /// it 0; the mid-tier aggregator mirrors FanInServer::outbound_queued.
    std::atomic<std::uint64_t> queued{0};
  };

  explicit ServingStatusBoard(std::size_t num_workers)
      : workers_(num_workers) {}

  Worker& worker(std::size_t w) { return workers_[w]; }
  std::size_t num_workers() const { return workers_.size(); }

  std::atomic<std::uint64_t> round{0};
  std::atomic<std::uint64_t> dispatched{0};
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> quorum_target{0};
  std::atomic<bool> quorum_met{false};
  std::atomic<bool> collecting{false};

  /// {"round":..,"workers":[{"id":..,"last_heard_age_ms":..},..]} — worker
  /// ages computed against the steady clock at call time (-1 = never heard).
  std::string to_json() const;

 private:
  std::vector<Worker> workers_;  ///< sized once; atomics live in place
};

struct TransportDispatcherConfig {
  LocalWorkConfig work;
  /// Per-frame send deadline, milliseconds (<0 = wait forever).
  int send_timeout_ms = 30000;
  /// Whole-round collection budget, measured from the end of the fan-out:
  /// jobs still outstanding when it runs out fail as Timeout (<0 = none).
  int recv_timeout_ms = 30000;
  /// Serving-mode liveness: a worker that has been silent (no update, no
  /// heartbeat, nothing) for this long while it owes updates is declared
  /// dead — its outstanding jobs fail as Crash and the engine's circuit
  /// breaker / selector see the failure. 0 disables.
  int heartbeat_timeout_ms = 0;
  /// Quorum commit (< 1 enables): once this fraction of the round's
  /// dispatched jobs have delivered updates, wait quorum_grace_ms longer,
  /// then fail the stragglers as Timeout instead of blocking the round.
  /// Pair with EngineConfig::overcommit so lost updates are re-covered by
  /// over-selection instead of shrinking the aggregate.
  double quorum_fraction = 1.0;
  int quorum_grace_ms = 0;
  /// Replacement-transport factory: when a worker's transport has died, the
  /// dispatcher calls reacquire(w) at the next round's fan-out; a non-null
  /// return (non-owning, caller keeps ownership) replaces the dead
  /// transport. Unset = dead workers stay dead.
  std::function<net::Transport*(std::size_t)> reacquire;
  /// Receives decoded TraceShard frames (workers' span buffers, §5i).
  /// Unset = shards are drained and dropped.
  std::function<void(net::TraceShardMsg&&)> on_trace_shard;
  /// Live-status mirror for /status; non-owning, may be null (default).
  ServingStatusBoard* status_board = nullptr;
  /// Liveness edge callback: fired with (worker, alive=false) when a worker
  /// is declared dead and (worker, alive=true) when a reacquired transport
  /// brings it back. Called from the dispatcher's (engine) thread. Feeds
  /// the live re-cluster path (§5h phase 2). Unset = no callbacks.
  std::function<void(std::size_t, bool)> on_liveness;
  /// Grouped aggregation (§5j): > 0 folds delivered updates into this many
  /// per-group PartialAggregates (group of a client = its worker's
  /// contiguous aggregator slice; workers.size() must divide evenly) instead
  /// of returning raw updates to the engine. A flat run with agg_groups == A
  /// aggregates bit-identically to an A-aggregator tree run — the
  /// byte-equality baseline. 0 (default) leaves the classic path untouched.
  std::size_t agg_groups = 0;
  /// Update-norm validation threshold for the grouped fold — must match
  /// EngineConfig::max_update_norm so rejection decisions are identical.
  double max_update_norm = 0.0;
};

/// Server side: ships TrainJob frames, collects ClientUpdate frames.
/// `workers` are non-owning; jobs are routed by client_id % workers.size().
class TransportDispatcher final : public RoundDispatcher {
 public:
  TransportDispatcher(std::vector<net::Transport*> workers,
                      TransportDispatcherConfig config);

  void execute(std::span<const TrainJobSpec> jobs,
               const std::vector<float>& global_params,
               std::vector<TrainOutcome>& outcomes) override;

  const std::vector<PartialAggregate>* partials() const override {
    return config_.agg_groups > 0 ? &partials_ : nullptr;
  }

 private:
  /// Handles one frame received from worker `w`; returns true when it
  /// settled an outstanding job.
  bool handle_frame(std::size_t w, const net::Frame& frame,
                    std::span<const TrainJobSpec> jobs,
                    const std::vector<float>& global_params,
                    std::vector<TrainOutcome>& outcomes);
  void fail_front(std::size_t w, FailureKind kind,
                  std::vector<TrainOutcome>& outcomes);
  void fail_all(std::size_t w, FailureKind kind,
                std::vector<TrainOutcome>& outcomes);

  /// Mirrors worker `w`'s queue depth / liveness onto the status board
  /// (no-op with a null board).
  void sync_board(std::size_t w);
  /// Stamps worker `w`'s last-heard clock on the status board.
  void board_note_heard(std::size_t w);

  /// Collects outstanding updates: round-robin slice polling under the
  /// whole-round budget, heartbeat deadlines and quorum commit.
  void collect(std::span<const TrainJobSpec> jobs,
               const std::vector<float>& global_params,
               std::vector<TrainOutcome>& outcomes);

  /// Grouped post-collection fold (§5j): walks the round's jobs in slot
  /// order and folds each delivered update into its group's partial with
  /// the engine's exact arithmetic; validation rejects become undelivered
  /// CorruptUpdate outcomes, the same accounting the engine's own
  /// validation produces.
  void fold_groups(std::span<const TrainJobSpec> jobs,
                   const std::vector<float>& global_params,
                   std::vector<TrainOutcome>& outcomes);
  std::size_t group_of(std::size_t client_id) const;
  /// Flips dead_[w] and fires the on_liveness edge callback on change.
  void set_dead(std::size_t w, bool dead);

  std::vector<net::Transport*> workers_;
  TransportDispatcherConfig config_;
  /// Outstanding job indices (into the execute() jobs span) per worker, in
  /// send order — the FIFO that corrupt frames are attributed against.
  std::vector<std::deque<std::size_t>> outstanding_;
  /// Workers whose transport returned Closed; candidates for reacquire.
  std::vector<bool> dead_;
  /// Per-group partial sums from the last execute() (agg_groups mode).
  std::vector<PartialAggregate> partials_;
};

/// Why a WorkerLoop::serve() call returned.
enum class WorkerRunEnd {
  Shutdown,     ///< server sent an orderly Shutdown frame
  Closed,       ///< transport closed / connection lost — caller may reconnect
  IdleTimeout,  ///< exit_on_timeout hit with no work pending
};

struct WorkerLoopConfig {
  std::uint32_t worker_id = 0;
  /// Receive deadline while idle (<0 = wait forever for the next job).
  int recv_timeout_ms = -1;
  /// Exit serve() when an idle receive times out (otherwise keep waiting).
  bool exit_on_timeout = false;
  /// Serving mode: send a Heartbeat frame this often so the server can tell
  /// "alive but training" from "gone". 0 disables (no heartbeat thread).
  int heartbeat_interval_ms = 0;
};

/// Worker side: serves TrainJob frames until Shutdown or the transport
/// closes. One WorkerLoop instance must persist across rounds — and across
/// reconnects — because it owns the per-client error-feedback residuals.
class WorkerLoop {
 public:
  WorkerLoop(const data::FederatedDataset& dataset,
             std::function<nn::Sequential()> model_factory,
             WorkerLoopConfig config = {});

  /// Serves on `transport` until shutdown, close, or idle timeout. Callable
  /// repeatedly (with a fresh transport after a reconnect); residuals and
  /// the served-job count carry over.
  WorkerRunEnd serve(net::Transport& transport);

  /// Jobs completed across all serve() calls so far.
  std::size_t jobs_served() const { return served_; }

 private:
  void handle_train_job(net::Transport& transport,
                        const net::TrainJobMsg& msg);
  /// Sends the buffered spans as one TraceShard frame and clears the
  /// buffer; no-op when nothing was recorded.
  void ship_trace_shard(net::Transport& transport);

  const data::FederatedDataset& dataset_;
  std::function<nn::Sequential()> model_factory_;
  WorkerLoopConfig config_;
  std::vector<std::vector<float>> residuals_;
  std::size_t served_ = 0;
  /// Last epoch seen in a TrainJob — echoed in heartbeats for diagnostics.
  std::atomic<std::uint64_t> last_epoch_{0};
  /// Spans recorded for trace-context-carrying jobs (§5i). Gated on the
  /// RECEIVED context, not local trace flags: only the server decides
  /// whether a run is traced, and an untraced run records nothing here.
  obs::TraceBuffer trace_;
  std::uint64_t trace_id_ = 0;
  std::int64_t trace_epoch_ = -1;  ///< epoch the buffer's spans belong to
  /// Last received context, republished in heartbeat trailers (relaxed
  /// atomics: the heartbeat thread reads while the serve loop writes).
  std::atomic<std::uint64_t> last_trace_id_{0};
  std::atomic<std::uint64_t> last_parent_span_{0};
  std::atomic<std::int64_t> last_round_{-1};
};

/// Knobs for LoopbackCluster beyond plain loopback options.
struct LoopbackClusterOptions {
  net::LoopbackOptions loopback;
  /// When enabled, BOTH directions of every worker link are wrapped in a
  /// ChaosTransport (per-direction forked seeds), so the dispatcher and the
  /// workers each face a hostile wire.
  net::ChaosOptions chaos;
  /// Forwarded to each WorkerLoop (serving-mode heartbeats).
  int worker_heartbeat_interval_ms = 0;
};

/// In-process worker fleet over loopback transports. Spawns one thread per
/// worker, each running a WorkerLoop on the B end of a loopback pair; the
/// A ends are handed to a TransportDispatcher via server_transports().
/// The destructor sends Shutdown to every worker and joins the threads.
class LoopbackCluster {
 public:
  LoopbackCluster(const data::FederatedDataset& dataset,
                  std::function<nn::Sequential()> model_factory,
                  std::size_t num_workers,
                  const net::LoopbackOptions& options = {});
  LoopbackCluster(const data::FederatedDataset& dataset,
                  std::function<nn::Sequential()> model_factory,
                  std::size_t num_workers,
                  const LoopbackClusterOptions& options);
  ~LoopbackCluster();

  LoopbackCluster(const LoopbackCluster&) = delete;
  LoopbackCluster& operator=(const LoopbackCluster&) = delete;

  std::vector<net::Transport*> server_transports() const;

  /// Jobs completed by worker `i` so far (valid after shutdown()/dtor join).
  std::size_t jobs_served(std::size_t i) const {
    return loops_.at(i)->jobs_served();
  }

  /// Sends Shutdown, closes the server-side transports (queued frames are
  /// still delivered — and if chaos ate the Shutdown, the close itself ends
  /// the worker), and joins all workers. Idempotent; the dtor calls it.
  void shutdown();

 private:
  std::vector<std::unique_ptr<net::Transport>> server_side_;
  std::vector<std::unique_ptr<net::Transport>> worker_side_;
  std::vector<std::unique_ptr<WorkerLoop>> loops_;
  std::vector<std::thread> threads_;
  bool stopped_ = false;
};

}  // namespace haccs::fl
