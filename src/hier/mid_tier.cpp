#include "src/hier/mid_tier.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/common/logging.hpp"
#include "src/fl/protocol.hpp"
#include "src/hier/fleet.hpp"
#include "src/net/wire.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"

namespace haccs::hier {

namespace {

/// Poll slice for the alternating upstream/downstream pump: short enough
/// that neither side starves the other, long enough not to spin.
constexpr int kSliceMs = 5;

/// Per-tier wire/fold telemetry (§5j): `hier_upstream_bytes_*` count exactly
/// the framed bytes this aggregator exchanged with the root, so a clean
/// 3-tier run's per-tier byte accounting sums to the root's transport
/// counters (asserted by the serving smoke).
struct HierMetrics {
  obs::Counter& rounds = obs::Registry::global().counter("hier_rounds_total");
  obs::Counter& folded =
      obs::Registry::global().counter("hier_updates_folded_total");
  obs::Counter& rejected =
      obs::Registry::global().counter("hier_updates_rejected_total");
  obs::Counter& jobs_relayed =
      obs::Registry::global().counter("hier_jobs_relayed_total");
  obs::Counter& worker_failures =
      obs::Registry::global().counter("hier_worker_failures_total");
  obs::Counter& upstream_sent =
      obs::Registry::global().counter("hier_upstream_bytes_sent_total");
  obs::Counter& upstream_received =
      obs::Registry::global().counter("hier_upstream_bytes_received_total");

  static HierMetrics& get() {
    static HierMetrics metrics;
    return metrics;
  }
};

std::size_t frame_wire_bytes(const net::Frame& frame) {
  return net::kFrameHeaderBytes + frame.payload.size();
}

}  // namespace

using fl::steady_ms;

MidTierAggregator::MidTierAggregator(const MidTierConfig& config)
    : config_(config), fanin_(config.fanin), ledger_(0) {
  if (config_.num_aggs == 0 || config_.num_workers == 0 ||
      config_.num_workers % config_.num_aggs != 0) {
    throw std::invalid_argument(
        "MidTierAggregator: num_aggs must evenly divide num_workers");
  }
  if (config_.agg_id >= config_.num_aggs) {
    throw std::invalid_argument("MidTierAggregator: agg_id out of range");
  }
  if (config_.chunk_params == 0) {
    throw std::invalid_argument("MidTierAggregator: chunk_params must be > 0");
  }
  const std::uint32_t per = config_.num_workers / config_.num_aggs;
  if (config_.status_board && config_.status_board->num_workers() < per) {
    throw std::invalid_argument(
        "MidTierAggregator: status_board has fewer rows than workers");
  }
  worker_begin_ = config_.agg_id * per;
  worker_end_ = worker_begin_ + per;
  conn_of_worker_.assign(per, 0);
  ledger_ = fl::UpdateLedger(per);
  summary_frames_.resize(per);
}

void MidTierAggregator::note_heard(std::size_t local) {
  if (fl::ServingStatusBoard* board = config_.status_board) {
    board->worker(local).last_heard_ms.store(steady_ms(),
                                             std::memory_order_relaxed);
  }
}

void MidTierAggregator::sync_board(std::size_t local) {
  fl::ServingStatusBoard* board = config_.status_board;
  if (!board) return;
  auto& row = board->worker(local);
  row.outstanding.store(ledger_.owed(local), std::memory_order_relaxed);
  row.alive.store(conn_of_worker_[local] != 0, std::memory_order_relaxed);
  row.queued.store(fanin_.outbound_queued(conn_of_worker_[local]),
                   std::memory_order_relaxed);
}

bool MidTierAggregator::send_upstream(net::Transport& upstream,
                                      const net::Frame& frame) {
  const auto status = upstream.send(frame);
  if (status != net::TransportStatus::Ok) {
    HACCS_WARN << "agg " << config_.agg_id
               << ": upstream send failed: " << net::to_string(status);
    return false;
  }
  const std::size_t bytes = frame_wire_bytes(frame);
  stats_.upstream_bytes_sent += bytes;
  HierMetrics::get().upstream_sent.inc(bytes);
  return true;
}

void MidTierAggregator::broadcast_downstream(const net::Frame& frame) {
  for (std::uint64_t conn : conn_of_worker_) {
    if (conn != 0) fanin_.send(conn, frame);
  }
}

bool MidTierAggregator::handshake(net::Transport& upstream) {
  const std::int64_t deadline = config_.handshake_timeout_ms > 0
                                    ? steady_ms() + config_.handshake_timeout_ms
                                    : -1;
  auto complete = [&] {
    return std::find(conn_of_worker_.begin(), conn_of_worker_.end(), 0u) ==
           conn_of_worker_.end();
  };
  while (!complete()) {
    if (deadline >= 0 && steady_ms() > deadline) {
      HACCS_WARN << "agg " << config_.agg_id
                 << ": handshake timeout; workers connected: "
                 << fanin_.connection_count() << "/" << conn_of_worker_.size();
      return false;
    }
    net::FanInEvent ev;
    if (fanin_.poll(&ev, 50)) handle_downstream(upstream, ev);
  }

  net::TopologyHelloMsg hello;
  hello.agg_id = config_.agg_id;
  hello.num_aggs = config_.num_aggs;
  hello.worker_begin = worker_begin_;
  hello.worker_end = worker_end_;
  for (const auto& frames : summary_frames_) {
    hello.num_clients += static_cast<std::uint32_t>(frames.size());
  }
  if (!send_upstream(upstream, net::encode_topology_hello(hello))) return false;
  for (const auto& frames : summary_frames_) {
    for (const net::Frame& frame : frames) {
      if (!send_upstream(upstream, frame)) return false;
    }
  }
  summary_frames_.clear();
  summary_frames_.shrink_to_fit();
  handshook_ = true;
  HACCS_INFO << "agg " << config_.agg_id << ": subtree up (workers ["
             << worker_begin_ << ", " << worker_end_ << "), "
             << hello.num_clients << " clients)";
  return true;
}

bool MidTierAggregator::run(net::Transport& upstream) {
  if (!handshake(upstream)) return false;
  std::int64_t next_heartbeat = config_.heartbeat_interval_ms > 0
                                    ? steady_ms() + config_.heartbeat_interval_ms
                                    : -1;
  for (;;) {
    bool busy = false;
    // Upstream: drain whatever the root has queued.
    for (;;) {
      net::Frame frame;
      const auto status = upstream.recv(&frame, 0);
      if (status == net::TransportStatus::Ok) {
        busy = true;
        const std::size_t bytes = frame_wire_bytes(frame);
        stats_.upstream_bytes_received += bytes;
        HierMetrics::get().upstream_received.inc(bytes);
        if (frame.type == net::MessageType::Shutdown) {
          broadcast_downstream(net::encode_shutdown());
          // Grace window: relay the workers' final TraceShards upstream
          // before the root stops draining us.
          const std::int64_t drain_deadline = steady_ms() + 1000;
          while (fanin_.connection_count() > 0 &&
                 steady_ms() < drain_deadline) {
            net::FanInEvent ev;
            if (fanin_.poll(&ev, 20)) handle_downstream(upstream, ev);
          }
          return true;
        }
        handle_upstream(frame);
        continue;
      }
      if (status == net::TransportStatus::Corrupt) {
        // Lost control traffic; the round deadline absorbs the damage.
        busy = true;
        continue;
      }
      if (status == net::TransportStatus::Closed) {
        HACCS_WARN << "agg " << config_.agg_id
                   << ": upstream closed; shutting subtree down";
        broadcast_downstream(net::encode_shutdown());
        return false;
      }
      break;  // Timeout: nothing pending
    }
    // Downstream: drain ready worker events.
    for (;;) {
      net::FanInEvent ev;
      if (!fanin_.poll(&ev, 0)) break;
      busy = true;
      handle_downstream(upstream, ev);
    }
    // Round bookkeeping: settle once every slot's job went out and no
    // worker owes an update, or when the deadline fails the stragglers.
    if (round_.open) {
      const bool late =
          round_.deadline_ms >= 0 && steady_ms() > round_.deadline_ms;
      if (late) {
        HACCS_WARN << "agg " << config_.agg_id << ": round " << round_.epoch
                   << " deadline; failing "
                   << ledger_.owed() + round_.clients.size() -
                          round_.jobs.size()
                   << " straggler(s)";
        for (std::size_t l = 0; l < conn_of_worker_.size(); ++l) {
          ledger_.fail_all(l, fl::FailureKind::Timeout, round_.outcomes);
          sync_board(l);
        }
      }
      if (late || (!round_.implicit &&
                   round_.jobs.size() == round_.clients.size() &&
                   ledger_.owed() == 0)) {
        if (!settle_round(upstream)) return false;
      }
    }
    if (next_heartbeat >= 0 && steady_ms() >= next_heartbeat) {
      net::HeartbeatMsg beat;
      beat.sender_id = config_.agg_id;
      beat.epoch = round_.epoch;
      if (!send_upstream(upstream, net::encode_heartbeat(beat))) return false;
      next_heartbeat = steady_ms() + config_.heartbeat_interval_ms;
    }
    if (!busy) {
      // Idle: block briefly on the fan-in side (which also flushes pending
      // outbound frames); the upstream link is re-polled next iteration.
      net::FanInEvent ev;
      if (fanin_.poll(&ev, kSliceMs)) handle_downstream(upstream, ev);
    }
  }
}

void MidTierAggregator::handle_upstream(const net::Frame& frame) {
  switch (frame.type) {
    case net::MessageType::SelectNotice:
      try {
        const net::SelectNoticeMsg notice = net::decode_select_notice(frame);
        open_round(notice.epoch, /*implicit=*/false);
        for (const std::uint32_t id : notice.clients) {
          const std::uint32_t w = id % config_.num_workers;
          if (w >= worker_begin_ && w < worker_end_) register_client(id);
        }
      } catch (const net::WireError& e) {
        HACCS_WARN << "agg " << config_.agg_id
                   << ": bad SelectNotice: " << e.what();
      }
      break;
    case net::MessageType::TrainJob:
      relay_train_job(frame);
      break;
    case net::MessageType::EvalReport:
      // Round-committed marker: relay so workers ship their trace shards.
      broadcast_downstream(frame);
      break;
    default:
      break;  // Heartbeat etc.: informational
  }
}

void MidTierAggregator::open_round(std::uint64_t epoch, bool implicit) {
  if (round_.open) {
    HACCS_WARN << "agg " << config_.agg_id << ": round " << round_.epoch
               << " abandoned (" << ledger_.owed() << " update(s) owed) for "
               << "round " << epoch;
  }
  round_ = Round{};
  round_.open = true;
  round_.implicit = implicit;
  round_.epoch = epoch;
  if (config_.round_timeout_ms > 0) {
    round_.deadline_ms = steady_ms() + config_.round_timeout_ms;
  }
  ledger_.clear();
  if (fl::ServingStatusBoard* board = config_.status_board) {
    board->round.store(epoch, std::memory_order_relaxed);
    board->dispatched.store(0, std::memory_order_relaxed);
    board->delivered.store(0, std::memory_order_relaxed);
    board->collecting.store(true, std::memory_order_relaxed);
    for (std::size_t l = 0; l < conn_of_worker_.size(); ++l) sync_board(l);
  }
}

std::size_t MidTierAggregator::register_client(std::uint32_t client_id) {
  const auto [it, added] =
      round_.slot_of.emplace(client_id, round_.clients.size());
  if (added) {
    round_.clients.push_back(client_id);
    // A slot whose TrainJob never arrives fails as Timeout at the deadline,
    // like a flat worker that never answers.
    round_.outcomes.emplace_back().failure = fl::FailureKind::Timeout;
    if (fl::ServingStatusBoard* board = config_.status_board) {
      board->dispatched.store(round_.clients.size(),
                              std::memory_order_relaxed);
    }
  }
  return it->second;
}

void MidTierAggregator::relay_train_job(const net::Frame& frame) {
  net::TrainJobMsg msg;
  try {
    msg = net::decode_train_job(frame);
  } catch (const net::WireError& e) {
    HACCS_WARN << "agg " << config_.agg_id << ": bad TrainJob: " << e.what();
    return;
  }
  if (!round_.open) {
    // The SelectNotice was lost (hostile link): open an implicit round
    // scoped by the job's epoch. Its slots are numbered in arrival order —
    // which IS slot order, since the root relays jobs in slot order over
    // one in-order link — and it settles only on the deadline, because the
    // client set is never known to be complete.
    open_round(msg.epoch, /*implicit=*/true);
  }
  if (msg.epoch != round_.epoch) return;  // stale round — drop
  const std::uint32_t w = msg.client_id % config_.num_workers;
  if (w < worker_begin_ || w >= worker_end_) {
    HACCS_WARN << "agg " << config_.agg_id << ": TrainJob for client "
               << msg.client_id << " outside subtree — dropped";
    return;
  }
  fl::TrainJobSpec job = fl::read_train_job(msg).job;
  job.slot = register_client(msg.client_id);
  // Keep the jobs in slot order (the fold order) whatever order they
  // arrive in; a duplicated TrainJob is relayed once.
  const auto at = std::lower_bound(
      round_.jobs.begin(), round_.jobs.end(), job.slot,
      [](const fl::TrainJobSpec& j, std::size_t slot) { return j.slot < slot; });
  if (at != round_.jobs.end() && at->slot == job.slot) return;
  round_.jobs.insert(at, job);
  if (round_.global.empty()) round_.global = std::move(msg.params);
  const std::size_t local = w - worker_begin_;
  const std::uint64_t conn = conn_of_worker_[local];
  if (conn == 0) {
    // The worker is gone: fail the client now, as a flat root's send to a
    // dead worker does, rather than on the deadline.
    round_.outcomes[job.slot].failure = fl::FailureKind::Crash;
    return;
  }
  ledger_.expect(local, job);
  HierMetrics::get().jobs_relayed.inc();
  // A false return means the peer was just shed; the Closed event the next
  // poll delivers fails this client along with the rest of its queue.
  fanin_.send(conn, frame);
  sync_board(local);
}

std::size_t MidTierAggregator::live_worker(std::uint64_t conn) const {
  const auto it = sessions_.find(conn);
  if (it == sessions_.end() || conn_of_worker_[it->second.local] != conn) {
    return kNoWorker;
  }
  return it->second.local;
}

void MidTierAggregator::drop(std::uint64_t conn) {
  sessions_.erase(conn);
  fanin_.close_conn(conn);
}

void MidTierAggregator::handle_hello(std::uint64_t conn,
                                     const net::Frame& frame) {
  if (live_worker(conn) != kNoWorker) return;  // already admitted
  net::HelloMsg hello;
  try {
    hello = check_worker_hello(
        frame, PeerScope{fanin_.peer_name(conn), config_.num_workers,
                         worker_begin_, worker_end_});
  } catch (const FleetError& e) {
    HACCS_WARN << "agg " << config_.agg_id << ": " << e.what()
               << "; connection dropped";
    drop(conn);
    return;
  }
  Session& session = sessions_[conn];
  session = Session{hello.worker_id - worker_begin_, hello.num_clients, {}};
  if (session.owed == 0) go_live(conn, session);
}

void MidTierAggregator::handle_summary(std::uint64_t conn,
                                       const net::Frame& frame) {
  const auto it = sessions_.find(conn);
  if (it == sessions_.end() || it->second.owed == 0) return;  // unexpected
  Session& session = it->second;
  const std::size_t worker = worker_begin_ + session.local;
  try {
    check_summary(frame,
                  PeerScope{fanin_.peer_name(conn), config_.num_workers,
                            worker, worker + 1},
                  "worker " + std::to_string(worker));
  } catch (const FleetError& e) {
    HACCS_WARN << "agg " << config_.agg_id << ": " << e.what()
               << "; connection dropped";
    drop(conn);
    return;
  }
  session.summaries.push_back(frame);
  if (--session.owed == 0) go_live(conn, session);
}

void MidTierAggregator::go_live(std::uint64_t conn, Session& session) {
  const std::size_t local = session.local;
  if (const std::uint64_t old = conn_of_worker_[local]; old != 0) {
    // Reconnect: the fresh session replaces the stale one, and the jobs
    // the stale one owed are lost with it.
    drop(old);
    ledger_.fail_all(local, fl::FailureKind::Crash, round_.outcomes);
  }
  conn_of_worker_[local] = conn;
  // Summaries count once per worker: a session completing before the
  // subtree announcement replaces any earlier one's; after it, the first
  // session's were already relayed.
  if (!handshook_) summary_frames_[local] = std::move(session.summaries);
  session.summaries.clear();
  if (fl::ServingStatusBoard* board = config_.status_board) {
    board->worker(local).sessions.fetch_add(1, std::memory_order_relaxed);
  }
  note_heard(local);
  sync_board(local);
}

void MidTierAggregator::handle_downstream(net::Transport& upstream,
                                          const net::FanInEvent& ev) {
  using Kind = net::FanInEvent::Kind;
  const std::size_t local = live_worker(ev.conn);
  if (local != kNoWorker && ev.kind != Kind::Closed) note_heard(local);
  switch (ev.kind) {
    case Kind::Accepted:
      break;  // identity arrives with the Hello frame
    case Kind::Frame:
      switch (ev.frame.type) {
        case net::MessageType::Hello:
          handle_hello(ev.conn, ev.frame);
          break;
        case net::MessageType::Summary:
          handle_summary(ev.conn, ev.frame);
          break;
        case net::MessageType::TraceShard:
          // Worker spans ride through unchanged; the root re-bases their
          // clocks exactly as it does for directly-attached workers.
          send_upstream(upstream, ev.frame);
          break;
        default:
          if (local == kNoWorker) break;
          if (ledger_.settle(local, ev.frame, round_.global,
                             round_.outcomes) &&
              config_.status_board) {
            config_.status_board->note_delivered(local);
          }
          sync_board(local);
          break;
      }
      break;
    case Kind::Corrupt:
      if (local != kNoWorker) {
        ledger_.fail_front(local, fl::FailureKind::CorruptUpdate,
                           round_.outcomes);
        sync_board(local);
      } else if (sessions_.count(ev.conn) > 0) {
        // A damaged handshake frame: this session can never complete.
        drop(ev.conn);
      }
      break;
    case Kind::Closed:
      if (local == kNoWorker) {
        sessions_.erase(ev.conn);
        break;
      }
      HACCS_WARN << "agg " << config_.agg_id << ": worker "
                 << worker_begin_ + local
                 << (ev.shed ? " shed (slow peer); " : " closed; ")
                 << ledger_.owed(local) << " job(s) abandoned";
      sessions_.erase(ev.conn);
      conn_of_worker_[local] = 0;
      ++stats_.worker_failures;
      HierMetrics::get().worker_failures.inc();
      ledger_.fail_all(local, fl::FailureKind::Crash, round_.outcomes);
      sync_board(local);
      break;
  }
}

bool MidTierAggregator::settle_round(net::Transport& upstream) {
  obs::Span span("subtree_settle", "hier");
  const auto arrived = static_cast<std::size_t>(
      std::count_if(round_.outcomes.begin(), round_.outcomes.end(),
                    [](const fl::TrainOutcome& out) { return out.delivered; }));
  // One group over the subtree's own slots: the same fold, in the same slot
  // order, that a grouped flat root runs for this group.
  std::vector<fl::PartialAggregate> partial(1);
  fl::fold_groups(
      round_.jobs, round_.global, round_.outcomes, partial,
      [](std::size_t) { return std::size_t{0}; }, config_.max_update_norm);
  const fl::PartialAggregate& folded = partial[0];
  stats_.folded += folded.updates;
  stats_.rejected += arrived - folded.updates;
  HierMetrics::get().folded.inc(folded.updates);
  HierMetrics::get().rejected.inc(arrived - folded.updates);

  std::uint64_t n_chunks = 0;
  for (std::size_t offset = 0; offset < folded.sum.size();
       offset += config_.chunk_params) {
    const std::size_t len =
        std::min(config_.chunk_params, folded.sum.size() - offset);
    net::SubtreeChunkMsg chunk;
    chunk.epoch = round_.epoch;
    chunk.agg_id = config_.agg_id;
    chunk.offset = offset;
    chunk.data.assign(
        folded.sum.begin() + static_cast<std::ptrdiff_t>(offset),
        folded.sum.begin() + static_cast<std::ptrdiff_t>(offset + len));
    if (!send_upstream(upstream, net::encode_subtree_chunk(chunk))) {
      return false;
    }
    ++n_chunks;
  }
  net::SubtreeUpdateMsg trailer;
  trailer.epoch = round_.epoch;
  trailer.agg_id = config_.agg_id;
  trailer.weight = folded.weight;
  trailer.n_chunks = n_chunks;
  for (std::size_t slot = 0; slot < round_.clients.size(); ++slot) {
    const fl::TrainOutcome& out = round_.outcomes[slot];
    net::SubtreeClientStat stat;
    stat.client_id = round_.clients[slot];
    stat.delivered = out.delivered ? 1 : 0;
    stat.failure = static_cast<std::uint8_t>(out.failure);
    stat.average_loss = out.result.average_loss;
    stat.final_loss = out.result.final_loss;
    stat.batches = out.result.batches;
    stat.sample_count = static_cast<std::uint64_t>(out.weight);
    trailer.stats.push_back(stat);
  }
  if (!send_upstream(upstream, net::encode_subtree_update(trailer))) {
    return false;
  }
  ++stats_.rounds;
  HierMetrics::get().rounds.inc();
  round_ = Round{};
  if (fl::ServingStatusBoard* board = config_.status_board) {
    board->collecting.store(false, std::memory_order_relaxed);
  }
  return true;
}

}  // namespace haccs::hier
