// The protocol driver: FederatedTrainer rounds over a net::Transport.
//
// Six pieces:
//   * DispatchCore — the serving core both roots share: this file's
//     TransportDispatcher (peers = workers) and hier::TreeDispatcher (peers
//     = aggregators). One config, the peers' liveness and status-board
//     rows, the reacquire step and the one collection loop; each root adds
//     only its own frame handling.
//   * UpdateLedger — the one set of rules for settling a job from a worker's
//     frames: per-worker FIFOs of owed jobs, ClientUpdate matching and
//     reconstruction, and the failure calls each transport event maps onto
//     (Corrupt -> CorruptUpdate, Closed -> Crash, time up -> Timeout).
//   * TransportDispatcher — the flat root: fans TrainJobs (make_train_job,
//     protocol.hpp) out by client_id % workers, settles ClientUpdate frames
//     through its ledger and, with agg_groups, folds them with fold_groups
//     (dispatch.hpp). Failures are routed into
//     ClientSelector::report_failure like simulated faults. dispatch() runs
//     the same round on TrainJob frames the caller already holds: it is how
//     hier::MidTierAggregator, the flat root of its subtree, relays its
//     root's frames, so a failure at either tier reaches the engine the
//     same way.
//   * WorkerLoop — the worker side: recover the job with read_train_job,
//     run the identical local training (run_local_job with the job's forked
//     RNG seed), reply with a ClientUpdate in the priced wire form. Keeps
//     per-client compression residuals across rounds and reconnects.
//   * HeartbeatThread — the one serving-mode heartbeat: a worker beats on
//     its link to its root, a mid tier on its link upstream.
//   * LoopbackCluster — in-process worker threads over loopback transports:
//     the full protocol at memory speed, bit-identical to the in-process
//     run (pinned in tests/net_test.cpp).
//
// Collection (DispatchCore::collect) polls one kPollSliceMs slice per peer
// that still owes frames until the root says the round is settled or
// recv_timeout_ms, the whole-round budget, runs out. Serving mode (DESIGN.md
// §5g): with heartbeat_timeout_ms any inbound frame refreshes a peer's
// liveness and a silent peer is declared dead, like a closed one. The flat
// root adds quorum commit (quorum_fraction < 1) and reacquire.
//
// Corrupt-frame attribution: a frame that fails its CRC cannot name its
// client, but workers process jobs strictly FIFO per connection, so the
// damage is charged to the oldest job that worker still owes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
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
  };

  explicit ServingStatusBoard(std::size_t num_workers)
      : workers_(num_workers) {}

  Worker& worker(std::size_t w) { return workers_[w]; }
  std::size_t num_workers() const { return workers_.size(); }
  /// Counts one update delivered through worker w.
  void note_delivered(std::size_t w) {
    delivered.fetch_add(1, std::memory_order_relaxed);
    workers_[w].updates.fetch_add(1, std::memory_order_relaxed);
  }

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

/// The one root config, for the flat and the tree root alike. "Peer" is a
/// worker under TransportDispatcher and an aggregator under
/// hier::TreeDispatcher, which refuses the fields only a flat root can
/// honour: quorum_fraction < 1, reacquire and agg_groups > 0.
struct TransportDispatcherConfig {
  LocalWorkConfig work;
  /// Per-frame send deadline, milliseconds (<0 = wait forever).
  int send_timeout_ms = 30000;
  /// Whole-round collection budget, measured from the end of the fan-out:
  /// jobs still outstanding when it runs out fail as Timeout (<0 = none).
  int recv_timeout_ms = 30000;
  /// Serving-mode liveness: a peer that has been silent (no update, no
  /// heartbeat, nothing) for this long while it owes frames is declared
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
  /// Receives decoded TraceShard frames (workers' span buffers, §5i; the
  /// tree's aggregators relay them). Unset = shards are drained and dropped.
  std::function<void(net::TraceShardMsg&&)> on_trace_shard;
  /// Live-status mirror for /status, one row per peer; non-owning, may be
  /// null (default).
  ServingStatusBoard* status_board = nullptr;
  /// Liveness edge callback: fired with (peer, alive=false) when a peer is
  /// declared dead and (peer, alive=true) when a reacquired transport
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
  /// (A tree validates at the mid tier, whose config carries its own.)
  double max_update_norm = 0.0;
};

/// The FailureKind a failed send charges: Timeout for a missed deadline,
/// Crash for anything else.
FailureKind send_failure(net::TransportStatus status);

/// One poll slice of the serving I/O model: the collection loop reads each
/// owing peer for this long per pass, and a mid tier closes an implicit
/// round's job intake once its upstream has been quiet this long.
inline constexpr int kPollSliceMs = 10;

/// Milliseconds on the steady clock: the one clock every serving deadline,
/// liveness check and status-board age is measured on.
std::int64_t steady_ms();

/// The jobs each worker owes this round and the rules that settle them.
/// Keyed by worker index (a root's transport, a mid tier's subtree slot);
/// every call writes the outcome of the job it settles at that job's slot.
class UpdateLedger {
 public:
  explicit UpdateLedger(std::size_t workers) : owed_(workers) {}

  /// Forgets every owed job: a new round.
  void clear();
  /// Worker w now owes `job`'s update; jobs queue in send order.
  void expect(std::size_t w, const TrainJobSpec& job) {
    owed_[w].push_back(job);
  }
  std::size_t owed(std::size_t w) const { return owed_[w].size(); }
  /// Jobs owed across every worker.
  std::size_t owed() const;

  /// Settles the job a frame from worker w answers. Only a ClientUpdate
  /// matching (client_id, epoch) in w's own queue counts; anything else is
  /// stale, a duplicate or not an update, and is dropped. A payload that
  /// does not decode fails w's oldest job as CorruptUpdate; one of the
  /// wrong size fails its own job so. Otherwise the update is rebuilt
  /// against `global_params` — Dense carries the updated parameters,
  /// compressed kinds the delta — and delivered. True when it delivered.
  bool settle(std::size_t w, const net::Frame& frame,
              std::span<const float> global_params,
              std::span<TrainOutcome> outcomes);
  /// Fails worker w's oldest owed job with `kind` (a CRC-bad frame).
  void fail_front(std::size_t w, FailureKind kind,
                  std::span<TrainOutcome> outcomes);
  /// Fails every job worker w owes with `kind`: Crash when it is lost,
  /// Timeout when the round's time is up.
  void fail_all(std::size_t w, FailureKind kind,
                std::span<TrainOutcome> outcomes);

 private:
  std::vector<std::deque<TrainJobSpec>> owed_;
};

/// What the shared collection loop asks of the root running it: the loop
/// owns the I/O rules, the hooks own what frames mean.
struct CollectHooks {
  /// Whether peer p still owes frames and should be read this pass.
  std::function<bool(std::size_t)> owes;
  /// Top of every pass, given the steady clock in ms; false ends
  /// collection. May settle work itself (a quorum commit).
  std::function<bool(std::int64_t)> pending;
  /// An intact frame from peer p other than a TraceShard.
  std::function<void(std::size_t, const net::Frame&)> on_frame;
  /// A frame from peer p failed its CRC.
  std::function<void(std::size_t)> on_corrupt;
  /// Peer p's outstanding work is lost: Crash when p closed or fell silent
  /// (p is already dead), Timeout for every peer when the budget runs out.
  std::function<void(std::size_t, FailureKind)> on_lost;
};

/// The root's serving core: one per dispatcher, over that root's direct
/// peers (workers or aggregators). Not thread-safe; the engine thread
/// drives it.
class DispatchCore {
 public:
  /// Throws std::invalid_argument on no peers, quorum_fraction outside
  /// (0, 1], or a status board with fewer rows than peers.
  DispatchCore(std::vector<net::Transport*> peers,
               TransportDispatcherConfig config);

  const TransportDispatcherConfig& config() const { return config_; }
  std::size_t size() const { return peers_.size(); }
  bool dead(std::size_t p) const { return dead_[p]; }

  /// Mirrors peer p's liveness and `owed` outstanding jobs onto the board.
  void sync_board(std::size_t p, std::size_t owed);
  /// Counts one update delivered through peer p on the board.
  void note_delivered(std::size_t p);
  /// Publishes a round's start / end on the board (no-op without one).
  void begin_round(std::uint64_t epoch, std::size_t dispatched);
  void end_round();
  /// Updates a quorum commit waits for: ceil(quorum_fraction · dispatched).
  std::size_t quorum_target(std::size_t dispatched) const;

  /// The one reacquire step: installs config().reacquire's replacement
  /// for peer p, marks p alive and counts the session
  /// (net_reconnects_total, the board's `sessions`). False if none.
  bool reacquire(std::size_t p);
  /// Sends `frame` to peer p under send_timeout_ms. A live peer whose link
  /// turns out Closed gets one reacquire() and resend before the failure
  /// stands; a peer still Closed is marked dead.
  net::TransportStatus send(std::size_t p, const net::Frame& frame);
  /// Receives at most one frame from peer p and routes it: TraceShards to
  /// on_trace_shard, other frames to hooks.on_frame, CRC failures to
  /// hooks.on_corrupt; both count as hearing from p.
  net::TransportStatus poll(std::size_t p, int timeout_ms,
                            const CollectHooks& hooks);
  /// The collection loop: slices of poll() over every peer that owes
  /// frames, under the whole-round budget and the heartbeat deadline,
  /// until hooks.pending says the round is settled.
  void collect(const CollectHooks& hooks);

 private:
  /// Flips peer p's liveness; on a change fires on_liveness and mirrors it
  /// onto the status board.
  void set_dead(std::size_t p, bool dead);
  /// Stamps peer p's liveness clock and the board's last-heard age.
  void heard(std::size_t p);

  std::vector<net::Transport*> peers_;
  TransportDispatcherConfig config_;
  /// Peers whose transport returned Closed or fell silent.
  std::vector<bool> dead_;
  /// Steady-clock ms each peer was last heard from, reset per collect().
  std::vector<std::int64_t> last_heard_;
};

/// The flat root: ships TrainJob frames, collects ClientUpdate frames.
/// `workers` are non-owning; jobs are routed by client_id % workers.size().
class TransportDispatcher final : public RoundDispatcher {
 public:
  TransportDispatcher(std::vector<net::Transport*> workers,
                      TransportDispatcherConfig config);

  void execute(std::span<const TrainJobSpec> jobs,
               const std::vector<float>& global_params,
               std::vector<TrainOutcome>& outcomes) override;

  /// execute() over TrainJob frames the caller already holds: frame_of(i)
  /// is sent for jobs[i] as is, instead of one built from config().work.
  /// A mid tier relays its root's frames, trace trailer included, this way.
  void dispatch(std::span<const TrainJobSpec> jobs,
                const std::function<net::Frame(std::size_t)>& frame_of,
                std::span<const float> global_params,
                std::vector<TrainOutcome>& outcomes);

  const std::vector<PartialAggregate>* partials() const override {
    return core_.config().agg_groups > 0 ? &partials_ : nullptr;
  }

 private:
  DispatchCore core_;
  UpdateLedger ledger_;
  /// Per-group partial sums from the last execute() (agg_groups mode).
  std::vector<PartialAggregate> partials_;
};

/// Serving-mode heartbeat (§5g): a side thread that calls `beat` every
/// interval_ms, so the far end can tell "alive but busy" from "gone". `beat`
/// sends one Heartbeat frame and returns false once the link is closed,
/// which ends the thread. Transport::send is frame-granularity thread-safe
/// (transport.hpp), so beats interleave with the owner's frames but never
/// tear them. An interval <= 0 starts no thread. The destructor stops and
/// joins the thread, whichever way the owner's scope ends.
class HeartbeatThread {
 public:
  HeartbeatThread(int interval_ms, std::function<bool()> beat);
  ~HeartbeatThread();
  HeartbeatThread(const HeartbeatThread&) = delete;
  HeartbeatThread& operator=(const HeartbeatThread&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
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
