#include "src/fl/net_driver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "src/common/logging.hpp"
#include "src/fl/protocol.hpp"
#include "src/net/wire.hpp"
#include "src/obs/flight.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"

namespace haccs::fl {

namespace {

/// One poll slice of the collection loop: it reads each owing peer for this
/// long per pass.
constexpr int kPollSliceMs = 10;

struct ServingMetrics {
  obs::Counter& heartbeats_missed =
      obs::Registry::global().counter("heartbeats_missed_total");
  obs::Counter& quorum_degraded =
      obs::Registry::global().counter("rounds_quorum_degraded_total");
  obs::Counter& reconnects =
      obs::Registry::global().counter("net_reconnects_total");

  static ServingMetrics& get() {
    static ServingMetrics metrics;
    return metrics;
  }
};

}  // namespace

std::int64_t steady_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string ServingStatusBoard::to_json() const {
  const std::int64_t now = steady_ms();
  std::string out = "{\"round\":" + std::to_string(round.load());
  out += ",\"collecting\":";
  out += collecting.load() ? "true" : "false";
  out += ",\"dispatched\":" + std::to_string(dispatched.load());
  out += ",\"delivered\":" + std::to_string(delivered.load());
  out += ",\"quorum_target\":" + std::to_string(quorum_target.load());
  out += ",\"quorum_met\":";
  out += quorum_met.load() ? "true" : "false";
  out += ",\"workers\":[";
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const Worker& worker = workers_[w];
    if (w > 0) out += ',';
    const std::int64_t heard = worker.last_heard_ms.load();
    out += "{\"id\":" + std::to_string(w);
    out += ",\"alive\":";
    out += worker.alive.load() ? "true" : "false";
    out += ",\"outstanding\":" + std::to_string(worker.outstanding.load());
    out += ",\"updates\":" + std::to_string(worker.updates.load());
    out += ",\"sessions\":" + std::to_string(worker.sessions.load());
    out += ",\"last_heard_age_ms\":" +
           std::to_string(heard < 0 ? -1 : now - heard);
    out += '}';
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------------------
// DispatchCore

FailureKind send_failure(net::TransportStatus status) {
  return status == net::TransportStatus::Timeout ? FailureKind::Timeout
                                                 : FailureKind::Crash;
}

DispatchCore::DispatchCore(std::vector<net::Transport*> peers,
                           TransportDispatcherConfig config)
    : peers_(std::move(peers)), config_(std::move(config)) {
  if (peers_.empty()) {
    throw std::invalid_argument("dispatcher: no peer transports");
  }
  if (config_.quorum_fraction <= 0.0 || config_.quorum_fraction > 1.0) {
    throw std::invalid_argument(
        "dispatcher: quorum_fraction must be in (0, 1]");
  }
  if (config_.status_board &&
      config_.status_board->num_workers() < peers_.size()) {
    throw std::invalid_argument(
        "dispatcher: status_board has fewer rows than peers");
  }
  dead_.assign(peers_.size(), false);
  last_heard_.assign(peers_.size(), 0);
}

void DispatchCore::set_dead(std::size_t p, bool dead) {
  if (dead_[p] == dead) return;
  dead_[p] = dead;
  if (config_.on_liveness) config_.on_liveness(p, !dead);
  if (ServingStatusBoard* board = config_.status_board) {
    board->worker(p).alive.store(!dead, std::memory_order_relaxed);
  }
}

void DispatchCore::sync_board(std::size_t p, std::size_t owed) {
  ServingStatusBoard* board = config_.status_board;
  if (!board) return;
  auto& row = board->worker(p);
  row.outstanding.store(owed, std::memory_order_relaxed);
  row.alive.store(!dead_[p], std::memory_order_relaxed);
}

void DispatchCore::note_delivered(std::size_t p) {
  if (ServingStatusBoard* board = config_.status_board) {
    board->note_delivered(p);
  }
}

void DispatchCore::heard(std::size_t p) {
  last_heard_[p] = steady_ms();
  if (ServingStatusBoard* board = config_.status_board) {
    board->worker(p).last_heard_ms.store(last_heard_[p],
                                         std::memory_order_relaxed);
  }
}

std::size_t DispatchCore::quorum_target(std::size_t dispatched) const {
  return config_.quorum_fraction < 1.0
             ? static_cast<std::size_t>(std::ceil(
                   config_.quorum_fraction * static_cast<double>(dispatched)))
             : dispatched;
}

void DispatchCore::begin_round(std::uint64_t epoch, std::size_t dispatched) {
  ServingStatusBoard* board = config_.status_board;
  if (!board) return;
  board->round.store(epoch, std::memory_order_relaxed);
  board->dispatched.store(dispatched, std::memory_order_relaxed);
  board->delivered.store(0, std::memory_order_relaxed);
  board->quorum_met.store(false, std::memory_order_relaxed);
  board->quorum_target.store(quorum_target(dispatched),
                             std::memory_order_relaxed);
  board->collecting.store(true, std::memory_order_relaxed);
  for (std::size_t p = 0; p < peers_.size(); ++p) sync_board(p, 0);
}

void DispatchCore::end_round() {
  ServingStatusBoard* board = config_.status_board;
  if (!board) return;
  board->collecting.store(false, std::memory_order_relaxed);
  for (std::size_t p = 0; p < peers_.size(); ++p) sync_board(p, 0);
}

bool DispatchCore::reacquire(std::size_t p) {
  if (!config_.reacquire) return false;
  net::Transport* fresh = config_.reacquire(p);
  if (!fresh) return false;
  peers_[p] = fresh;
  set_dead(p, false);
  ServingMetrics::get().reconnects.inc();
  if (ServingStatusBoard* board = config_.status_board) {
    board->worker(p).sessions.fetch_add(1, std::memory_order_relaxed);
  }
  HACCS_INFO << "dispatcher: peer " << p << " reacquired (" << fresh->peer()
             << ")";
  return true;
}

net::TransportStatus DispatchCore::send(std::size_t p,
                                        const net::Frame& frame) {
  auto status = peers_[p]->send(frame, config_.send_timeout_ms);
  // The link died since the last round (or mid-fan-out): try one immediate
  // replacement before the frame's job is charged.
  if (status == net::TransportStatus::Closed && !dead_[p] && reacquire(p)) {
    status = peers_[p]->send(frame, config_.send_timeout_ms);
  }
  if (status == net::TransportStatus::Closed) set_dead(p, true);
  return status;
}

net::TransportStatus DispatchCore::poll(std::size_t p, int timeout_ms,
                                        const CollectHooks& hooks) {
  net::Frame frame;
  const auto status = peers_[p]->recv(&frame, timeout_ms);
  if (status == net::TransportStatus::Corrupt) {
    heard(p);  // a damaged frame is still proof of life
    hooks.on_corrupt(p);
  } else if (status == net::TransportStatus::Ok) {
    heard(p);
    if (frame.type != net::MessageType::TraceShard) {
      hooks.on_frame(p, frame);
    } else if (config_.on_trace_shard) {
      // A span buffer riding home ahead of its sender's next update (§5i).
      try {
        config_.on_trace_shard(net::decode_trace_shard(frame));
      } catch (const net::WireError& e) {
        HACCS_WARN << "undecodable TraceShard from " << peers_[p]->peer()
                   << ": " << e.what();
      }
    }
  }
  return status;
}

void DispatchCore::collect(const CollectHooks& hooks) {
  const std::int64_t start = steady_ms();
  last_heard_.assign(peers_.size(), start);
  for (;;) {
    const std::int64_t now = steady_ms();
    if (!hooks.pending(now)) return;
    // Whole-round collection budget: fail the remainder rather than hang.
    if (config_.recv_timeout_ms >= 0 && now - start > config_.recv_timeout_ms) {
      HACCS_WARN << "round collection budget (" << config_.recv_timeout_ms
                 << " ms) exhausted; outstanding work abandoned";
      for (std::size_t p = 0; p < peers_.size(); ++p) {
        hooks.on_lost(p, FailureKind::Timeout);
      }
      return;
    }
    // One short poll slice per peer that still owes frames.
    for (std::size_t p = 0; p < peers_.size(); ++p) {
      if (!hooks.owes(p)) continue;
      switch (poll(p, kPollSliceMs, hooks)) {
        case net::TransportStatus::Ok:
        case net::TransportStatus::Corrupt:
          continue;
        case net::TransportStatus::Closed:
          HACCS_WARN << "transport to " << peers_[p]->peer()
                     << " closed; outstanding work abandoned";
          break;
        case net::TransportStatus::Timeout:
          if (config_.heartbeat_timeout_ms <= 0 ||
              steady_ms() - last_heard_[p] <= config_.heartbeat_timeout_ms) {
            continue;
          }
          ServingMetrics::get().heartbeats_missed.inc();
          HACCS_WARN << "peer " << p << " (" << peers_[p]->peer()
                     << ") silent for > " << config_.heartbeat_timeout_ms
                     << " ms; declaring dead";
          break;
      }
      set_dead(p, true);
      hooks.on_lost(p, FailureKind::Crash);
    }
  }
}

// ---------------------------------------------------------------------------
// UpdateLedger

void UpdateLedger::clear() {
  for (auto& queue : owed_) queue.clear();
}

std::size_t UpdateLedger::owed() const {
  std::size_t total = 0;
  for (const auto& queue : owed_) total += queue.size();
  return total;
}

void UpdateLedger::fail_front(std::size_t w, FailureKind kind,
                              std::span<TrainOutcome> outcomes) {
  auto& queue = owed_[w];
  if (queue.empty()) return;
  TrainOutcome& out = outcomes[queue.front().slot];
  out.delivered = false;
  out.failure = kind;
  queue.pop_front();
}

void UpdateLedger::fail_all(std::size_t w, FailureKind kind,
                            std::span<TrainOutcome> outcomes) {
  while (!owed_[w].empty()) fail_front(w, kind, outcomes);
}

bool UpdateLedger::settle(std::size_t w, const net::Frame& frame,
                          std::span<const float> global_params,
                          std::span<TrainOutcome> outcomes) {
  // Heartbeats and other control traffic are not update settlements.
  if (frame.type != net::MessageType::ClientUpdate) return false;
  net::ClientUpdateMsg msg;
  try {
    msg = net::decode_client_update(frame);
  } catch (const net::WireError& e) {
    // CRC passed but the payload is still unparseable (e.g. a
    // version-skewed peer): charge it like wire damage.
    HACCS_WARN << "undecodable ClientUpdate from worker " << w << ": "
               << e.what();
    fail_front(w, FailureKind::CorruptUpdate, outcomes);
    return false;
  }
  // Workers answer strictly FIFO, so this is normally the queue front; the
  // search keeps a reordering (or duplicated) peer from mis-settling jobs,
  // and a job owed by another worker is never settled from this one.
  auto& queue = owed_[w];
  const auto it =
      std::find_if(queue.begin(), queue.end(), [&](const TrainJobSpec& job) {
        return job.client_id == msg.client_id && job.epoch == msg.epoch;
      });
  if (it == queue.end()) return false;  // stale or duplicate — drop
  TrainOutcome& out = outcomes[it->slot];
  queue.erase(it);

  if (msg.update.size != global_params.size()) {
    out.delivered = false;
    out.failure = FailureKind::CorruptUpdate;
    return false;
  }
  // Payload semantics (messages.hpp): Dense carries the updated parameters
  // themselves; compressed kinds carry the delta, reconstructed with the
  // same arithmetic the in-process path uses — bit-identical either way.
  if (msg.update.kind == net::UpdateKind::Dense) {
    out.updated = std::move(msg.update.dense);
  } else {
    const auto dense = msg.update.to_dense();
    out.updated.resize(dense.size());
    for (std::size_t p = 0; p < dense.size(); ++p) {
      out.updated[p] = global_params[p] + dense[p];
    }
  }
  out.delivered = true;
  out.weight = static_cast<double>(msg.sample_count);
  out.result.average_loss = msg.average_loss;
  out.result.final_loss = msg.final_loss;
  out.result.batches = static_cast<std::size_t>(msg.batches);
  return true;
}

// ---------------------------------------------------------------------------
// TransportDispatcher

TransportDispatcher::TransportDispatcher(std::vector<net::Transport*> workers,
                                         TransportDispatcherConfig config)
    : core_(std::move(workers), std::move(config)),
      ledger_(core_.size()),
      topology_(core_.size(),
                std::max<std::size_t>(core_.config().agg_groups, 1)) {}

void TransportDispatcher::execute(std::span<const TrainJobSpec> jobs,
                                  const std::vector<float>& global_params,
                                  std::vector<TrainOutcome>& outcomes) {
  // Snapshot the engine's round context once per fan-out: every TrainJob of
  // the round carries the same parent span. Untraced runs send the invalid
  // context, which the codec encodes as zero extra bytes.
  const obs::TraceContext trace_ctx =
      obs::trace_enabled() ? obs::round_context() : obs::TraceContext{};
  dispatch(
      jobs,
      [&](std::size_t j) {
        return net::encode_train_job(make_train_job(
            jobs[j], core_.config().work, global_params, trace_ctx));
      },
      global_params, outcomes);
}

void TransportDispatcher::dispatch(
    std::span<const TrainJobSpec> jobs,
    const std::function<net::Frame(std::size_t)>& frame_of,
    std::span<const float> global_params,
    std::vector<TrainOutcome>& outcomes) {
  const TransportDispatcherConfig& config = core_.config();
  ledger_.clear();
  core_.begin_round(jobs.empty() ? 0 : jobs.front().epoch, jobs.size());

  // Serving mode: give workers that died in an earlier round a fresh
  // transport before fanning out, so a reconnected process rejoins the
  // rotation instead of eating a round of Crash failures.
  for (std::size_t w = 0; w < core_.size(); ++w) {
    if (core_.dead(w)) core_.reacquire(w);
  }

  const std::size_t quorum_target = core_.quorum_target(jobs.size());
  std::int64_t quorum_deadline = -1;  // set once the quorum first lands
  CollectHooks hooks;
  hooks.owes = [&](std::size_t w) { return ledger_.owed(w) > 0; };
  hooks.pending = [&](std::int64_t now) {
    const std::size_t owed = ledger_.owed();
    if (owed == 0) return false;
    if (config.quorum_fraction >= 1.0) return true;
    const auto delivered = static_cast<std::size_t>(
        std::count_if(jobs.begin(), jobs.end(), [&](const TrainJobSpec& job) {
          return outcomes[job.slot].delivered;
        }));
    if (delivered < quorum_target) return true;
    // Quorum commit: enough updates have landed — give stragglers one grace
    // window, then cut the round loose.
    if (quorum_deadline < 0) {
      quorum_deadline = now + config.quorum_grace_ms;
      if (ServingStatusBoard* board = config.status_board) {
        board->quorum_met.store(true, std::memory_order_relaxed);
      }
    }
    if (now < quorum_deadline) return true;
    ServingMetrics::get().quorum_degraded.inc();
    obs::FlightRecorder::global().note_quorum_degraded();
    HACCS_INFO << "serving: quorum (" << quorum_target << "/" << jobs.size()
               << ") reached; abandoning " << owed << " straggler job(s)";
    for (std::size_t w = 0; w < core_.size(); ++w) {
      ledger_.fail_all(w, FailureKind::Timeout, outcomes);
    }
    return false;
  };
  hooks.on_frame = [&](std::size_t w, const net::Frame& frame) {
    if (ledger_.settle(w, frame, global_params, outcomes)) {
      core_.note_delivered(w);
    }
    core_.sync_board(w, ledger_.owed(w));
  };
  hooks.on_corrupt = [&](std::size_t w) {
    ledger_.fail_front(w, FailureKind::CorruptUpdate, outcomes);
    core_.sync_board(w, ledger_.owed(w));
  };
  hooks.on_lost = [&](std::size_t w, FailureKind kind) {
    ledger_.fail_all(w, kind, outcomes);
    core_.sync_board(w, ledger_.owed(w));
  };

  // Fan out. After each send, drain whatever already came back so neither
  // side ever sits blocked on a full buffer (a worker may be trying to send
  // its update while we are still sending jobs).
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const TrainJobSpec& job = jobs[j];
    const std::size_t w = topology_.worker_of(job.client_id);
    const auto status = core_.send(w, frame_of(j));
    if (status == net::TransportStatus::Ok) {
      ledger_.expect(w, job);
    } else {
      TrainOutcome& out = outcomes[job.slot];
      out.delivered = false;
      out.failure = send_failure(status);
    }
    core_.sync_board(w, ledger_.owed(w));
    while (ledger_.owed(w) > 0) {
      const auto rs = core_.poll(w, 0, hooks);
      // Timeout = nothing ready yet; Closed is settled by the collection.
      if (rs != net::TransportStatus::Ok &&
          rs != net::TransportStatus::Corrupt) {
        break;
      }
    }
  }

  core_.collect(hooks);

  if (config.agg_groups > 0) {
    // Jobs are in slot order, so each group folds its slots in the order
    // the mid tier does (hier/mid_tier.hpp) — the bit-identity invariant.
    // Group of a client = its aggregator under the same topology.
    partials_.resize(config.agg_groups);  // keeps each group's sum storage
    fold_groups(
        jobs, global_params, outcomes, partials_,
        [&](std::size_t client) { return topology_.agg_of(client); },
        config.max_update_norm);
  }
  core_.end_round();
}

// ---------------------------------------------------------------------------
// HeartbeatThread

HeartbeatThread::HeartbeatThread(int interval_ms, std::function<bool()> beat) {
  if (interval_ms <= 0) return;
  thread_ = std::thread([this, interval_ms, beat = std::move(beat)] {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                         [this] { return stop_; })) {
      lock.unlock();  // only stop_ is guarded; beat outside the lock
      try {
        if (!beat()) return;  // the owner will observe the close too
      } catch (const std::exception& e) {
        HACCS_WARN << "heartbeat stopped: " << e.what();
        return;
      }
      lock.lock();
    }
  });
}

HeartbeatThread::~HeartbeatThread() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

// ---------------------------------------------------------------------------
// WorkerLoop

WorkerLoop::WorkerLoop(const data::FederatedDataset& dataset,
                       std::function<nn::Sequential()> model_factory,
                       WorkerLoopConfig config)
    : dataset_(dataset),
      model_(model_factory()),
      config_(config),
      residuals_(dataset.clients.size()) {}

void WorkerLoop::handle_train_job(net::Transport& transport,
                                  const net::TrainJobMsg& msg) {
  if (msg.client_id >= dataset_.clients.size()) {
    HACCS_WARN << "TrainJob for unknown client " << msg.client_id
               << " (have " << dataset_.clients.size() << ")";
    return;  // no reply; the server's deadline covers it
  }
  const TrainJobOrder order = read_train_job(msg);
  const LocalWorkConfig& work = order.work;

  // Worker-side child span (§5i): gated on the RECEIVED context, so only a
  // tracing server makes workers read clocks or buffer events — a worker's
  // own trace flags never enter the decision, and untraced runs stay
  // byte-identical.
  const bool traced = msg.trace.valid();
  const std::uint64_t train_begin_ns = traced ? obs::now_ns() : 0;

  CompressedUpdate compressed;
  std::vector<float> updated;
  const LocalTrainResult result =
      run_local_job(order.job, dataset_.clients[msg.client_id].train, model_,
                    msg.params, work, residuals_[msg.client_id], updated,
                    &compressed);

  if (traced) {
    obs::TraceEvent span;
    span.name = "local_train";
    span.category = "fl";
    span.tid = obs::thread_id();
    span.ts_ns = train_begin_ns;
    span.dur_ns = obs::now_ns() - train_begin_ns;
    span.span_id = obs::next_span_id();
    span.parent_id = msg.trace.parent_span;
    span.round = msg.trace.round;
    trace_.record(span);
    trace_id_ = msg.trace.trace_id;
    trace_epoch_ = static_cast<std::int64_t>(msg.epoch);
  }

  net::ClientUpdateMsg reply;
  reply.trace = msg.trace;
  reply.epoch = msg.epoch;
  reply.client_id = msg.client_id;
  reply.average_loss = result.average_loss;
  reply.final_loss = result.final_loss;
  reply.batches = result.batches;
  reply.sample_count = dataset_.clients[msg.client_id].train.size();
  const std::size_t n = updated.size();
  if (work.compression.kind == CompressionKind::None) {
    // Dense uplink ships the updated parameters themselves (messages.hpp).
    CompressedUpdate dense;
    dense.dense = std::move(updated);
    reply.update = make_update_payload(dense, n, work.compression);
  } else {
    reply.update = make_update_payload(compressed, n, work.compression);
  }
  const auto status = transport.send(net::encode_client_update(reply));
  if (status != net::TransportStatus::Ok) {
    HACCS_WARN << "worker " << config_.worker_id << " failed to send update: "
               << net::to_string(status);
  }
}

void WorkerLoop::ship_trace_shard(net::Transport& transport) {
  if (trace_.size() == 0) return;
  net::TraceShardMsg shard;
  shard.worker_id = config_.worker_id;
  shard.trace_id = trace_id_;
  shard.send_ns = obs::now_ns();
  for (const obs::TraceEvent& event : trace_.snapshot()) {
    shard.events.push_back(obs::to_portable(event));
  }
  trace_.clear();
  const auto status = transport.send(net::encode_trace_shard(shard));
  if (status != net::TransportStatus::Ok) {
    HACCS_WARN << "worker " << config_.worker_id
               << " failed to ship trace shard: " << net::to_string(status);
  }
}

WorkerRunEnd WorkerLoop::serve(net::Transport& transport) {
  const HeartbeatThread heartbeat(config_.heartbeat_interval_ms, [&] {
    return transport.send(net::encode_heartbeat()) !=
           net::TransportStatus::Closed;
  });

  WorkerRunEnd end = WorkerRunEnd::Closed;
  for (;;) {
    net::Frame frame;
    const auto status = transport.recv(&frame, config_.recv_timeout_ms);
    if (status == net::TransportStatus::Closed) {
      end = WorkerRunEnd::Closed;
      break;
    }
    if (status == net::TransportStatus::Timeout) {
      if (config_.exit_on_timeout) {
        end = WorkerRunEnd::IdleTimeout;
        break;
      }
      continue;
    }
    if (status == net::TransportStatus::Corrupt) {
      // A corrupt TrainJob cannot name its client, so there is nothing to
      // answer; the server's recv deadline converts this into a Timeout
      // failure on its side.
      continue;
    }
    switch (frame.type) {
      case net::MessageType::TrainJob:
        try {
          const auto msg = net::decode_train_job(frame);
          // A job for a NEW round means the previous round committed
          // server-side: ship the buffered spans home first (§5i).
          if (msg.trace.valid() && trace_epoch_ >= 0 &&
              static_cast<std::int64_t>(msg.epoch) != trace_epoch_) {
            ship_trace_shard(transport);
          }
          handle_train_job(transport, msg);
          ++served_;
        } catch (const net::WireError& e) {
          HACCS_WARN << "undecodable TrainJob: " << e.what();
        }
        break;
      case net::MessageType::EvalReport:
        // A traced server's wind-down report: last chance to ship the final
        // round's spans while the server is still draining our frames.
        try {
          if (net::decode_eval_report(frame).trace.valid()) {
            ship_trace_shard(transport);
          }
        } catch (const net::WireError& e) {
          HACCS_WARN << "undecodable EvalReport: " << e.what();
        }
        break;
      case net::MessageType::Shutdown:
        ship_trace_shard(transport);
        return WorkerRunEnd::Shutdown;
      default:
        break;  // Heartbeat etc.: informational
    }
  }
  return end;
}

// ---------------------------------------------------------------------------
// LoopbackCluster

LoopbackCluster::LoopbackCluster(const data::FederatedDataset& dataset,
                                 std::function<nn::Sequential()> model_factory,
                                 std::size_t num_workers,
                                 const net::LoopbackOptions& options)
    : LoopbackCluster(dataset, model_factory, num_workers,
                      LoopbackClusterOptions{.loopback = options}) {}

LoopbackCluster::LoopbackCluster(const data::FederatedDataset& dataset,
                                 std::function<nn::Sequential()> model_factory,
                                 std::size_t num_workers,
                                 const LoopbackClusterOptions& options) {
  if (num_workers == 0) {
    throw std::invalid_argument("LoopbackCluster: need at least one worker");
  }
  server_side_.reserve(num_workers);
  worker_side_.reserve(num_workers);
  loops_.reserve(num_workers);
  threads_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    auto pair = net::make_loopback_pair(options.loopback);
    // Both directions face the chaos independently, with seeds forked per
    // (worker, direction) so every link replays deterministically.
    net::ChaosOptions server_chaos = options.chaos;
    server_chaos.seed = options.chaos.seed ^ (0x5e2f1d03ULL * (2 * i + 1));
    net::ChaosOptions worker_chaos = options.chaos;
    worker_chaos.seed = options.chaos.seed ^ (0x9b4aa217ULL * (2 * i + 2));
    server_side_.push_back(
        net::wrap_chaos(std::move(pair.a), server_chaos));
    worker_side_.push_back(
        net::wrap_chaos(std::move(pair.b), worker_chaos));
    WorkerLoopConfig cfg;
    cfg.worker_id = static_cast<std::uint32_t>(i);
    cfg.heartbeat_interval_ms = options.worker_heartbeat_interval_ms;
    loops_.push_back(
        std::make_unique<WorkerLoop>(dataset, model_factory, cfg));
  }
  for (std::size_t i = 0; i < num_workers; ++i) {
    threads_.emplace_back([this, i] { loops_[i]->serve(*worker_side_[i]); });
  }
}

LoopbackCluster::~LoopbackCluster() { shutdown(); }

std::vector<net::Transport*> LoopbackCluster::server_transports() const {
  std::vector<net::Transport*> out;
  out.reserve(server_side_.size());
  for (const auto& transport : server_side_) out.push_back(transport.get());
  return out;
}

void LoopbackCluster::shutdown() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& transport : server_side_) {
    transport->send(net::encode_shutdown());
    // Close after the Shutdown frame: loopback recv still delivers queued
    // frames after a close, and if chaos dropped the Shutdown the close is
    // what unblocks the worker — either way the thread exits.
    transport->close();
  }
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

}  // namespace haccs::fl
