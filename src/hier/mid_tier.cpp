#include "src/hier/mid_tier.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/common/logging.hpp"
#include "src/fl/protocol.hpp"
#include "src/net/wire.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"

namespace haccs::hier {

namespace {

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

/// A MidTierConfig budget (0 = none) as a transport deadline (<0 = none).
int deadline(int budget_ms) { return budget_ms > 0 ? budget_ms : -1; }

FleetConfig subtree_fleet(const MidTierConfig& config) {
  if (config.num_aggs == 0 || config.num_workers == 0 ||
      config.num_workers % config.num_aggs != 0) {
    throw std::invalid_argument(
        "MidTierAggregator: num_aggs must evenly divide num_workers");
  }
  if (config.agg_id >= config.num_aggs) {
    throw std::invalid_argument("MidTierAggregator: agg_id out of range");
  }
  const std::uint32_t per = config.num_workers / config.num_aggs;
  FleetConfig fleet;
  fleet.num_workers = config.num_workers;
  fleet.worker_begin = config.agg_id * per;
  fleet.worker_end = fleet.worker_begin + per;
  fleet.io_timeout_ms = deadline(config.handshake_timeout_ms);
  return fleet;
}

}  // namespace

MidTierAggregator::MidTierAggregator(const MidTierConfig& config,
                                     Fleet::Acceptor accept)
    : config_(config), fleet_(subtree_fleet(config), std::move(accept)) {
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
  upstream_sent_.fetch_add(bytes, std::memory_order_relaxed);
  HierMetrics::get().upstream_sent.inc(bytes);
  return true;
}

bool MidTierAggregator::run(net::Transport& upstream) {
  const bool ok = announce(upstream) && serve(upstream);
  stats_.upstream_bytes_sent = upstream_sent_.load(std::memory_order_relaxed);
  return ok;
}

bool MidTierAggregator::announce(net::Transport& upstream) {
  const std::vector<std::vector<net::Frame>> summaries =
      fleet_.accept_all(deadline(config_.handshake_timeout_ms));
  net::TopologyHelloMsg hello;
  hello.agg_id = config_.agg_id;
  hello.num_aggs = config_.num_aggs;
  hello.worker_begin = worker_begin_;
  hello.worker_end = worker_end_;
  for (const auto& frames : summaries) {
    hello.num_clients += static_cast<std::uint32_t>(frames.size());
  }
  if (!send_upstream(upstream, net::encode_topology_hello(hello))) {
    return false;
  }
  for (const auto& frames : summaries) {
    for (const net::Frame& frame : frames) {
      if (!send_upstream(upstream, frame)) return false;
    }
  }
  HACCS_INFO << "agg " << config_.agg_id << ": subtree up (workers ["
             << worker_begin_ << ", " << worker_end_ << "), "
             << hello.num_clients << " clients)";
  return true;
}

bool MidTierAggregator::serve(net::Transport& upstream) {
  const fl::HeartbeatThread heartbeat(config_.heartbeat_interval_ms, [&] {
    net::HeartbeatMsg beat;
    beat.sender_id = config_.agg_id;
    beat.epoch = epoch_.load(std::memory_order_relaxed);
    return send_upstream(upstream, net::encode_heartbeat(beat));
  });
  fl::TransportDispatcherConfig dispatch;
  dispatch.send_timeout_ms = deadline(config_.round_timeout_ms);
  dispatch.recv_timeout_ms = deadline(config_.round_timeout_ms);
  dispatch.reacquire = [this](std::size_t w) { return fleet_.reacquire(w); };
  // Worker spans ride upstream; the root re-bases their clocks exactly as
  // it does for directly-attached workers.
  dispatch.on_trace_shard = [&](net::TraceShardMsg&& shard) {
    send_upstream(upstream, net::encode_trace_shard(shard));
  };
  dispatch.status_board = config_.status_board;
  dispatch.on_liveness = [this](std::size_t, bool alive) {
    if (alive) return;
    ++stats_.worker_failures;
    HierMetrics::get().worker_failures.inc();
  };
  // Peer p is worker worker_begin_ + p, and the dispatcher sends client c
  // to peer c % per: since per divides num_workers, that is c's worker.
  fl::TransportDispatcher dispatcher(fleet_.transports(), std::move(dispatch));
  for (;;) {
    Round round;
    switch (gather(upstream, round)) {
      case Next::Round:
        if (settle_round(upstream, dispatcher, round)) continue;
        break;  // upstream lost: wind the subtree down
      case Next::Shutdown:
        fleet_.shut_down(report_, [&](net::TraceShardMsg&& shard) {
          send_upstream(upstream, net::encode_trace_shard(shard));
        });
        return true;
      case Next::Lost:
        HACCS_WARN << "agg " << config_.agg_id
                   << ": upstream closed; shutting subtree down";
        break;
    }
    fleet_.shut_down(net::EvalReportMsg{}, nullptr);
    return false;
  }
}

MidTierAggregator::Next MidTierAggregator::gather(net::Transport& upstream,
                                                  Round& round) {
  bool open = false;
  const auto slot_of = [&](std::uint32_t client) {
    const auto [it, added] =
        round.slot_of.emplace(client, round.clients.size());
    if (added) round.clients.push_back(client);
    return it->second;
  };
  const auto in_subtree = [&](std::uint32_t client) {
    const std::uint32_t w = client % config_.num_workers;
    return w >= worker_begin_ && w < worker_end_;
  };
  const auto stale = [&](std::uint64_t epoch) {
    return served_epoch_ && epoch <= *served_epoch_;
  };
  // A noticed round waits for every slot's job, up to the round budget; an
  // implicit one (its notice lost) cannot know its size, so its intake
  // closes once upstream is quiet: a poll slice with no frame, and none
  // partly arrived.
  std::int64_t intake_deadline = -1;
  for (;;) {
    int wait_ms = -1;
    if (open && !round.noticed) {
      wait_ms = fl::kPollSliceMs;
    } else if (intake_deadline >= 0) {
      wait_ms = static_cast<int>(
          std::max<std::int64_t>(0, intake_deadline - fl::steady_ms()));
    }
    net::Frame frame;
    const auto status = upstream.recv(&frame, wait_ms);
    if (status == net::TransportStatus::Timeout) {
      if (!open) continue;
      // Once the intake closes, a job still missing fails as Timeout.
      const bool closes =
          round.noticed
              ? intake_deadline >= 0 && fl::steady_ms() >= intake_deadline
              : !upstream.receiving();
      if (closes) return Next::Round;
      continue;
    }
    if (status == net::TransportStatus::Closed) return Next::Lost;
    // Lost control traffic: a job it carried fails as Timeout.
    if (status == net::TransportStatus::Corrupt) continue;
    const std::size_t bytes = frame_wire_bytes(frame);
    stats_.upstream_bytes_received += bytes;
    HierMetrics::get().upstream_received.inc(bytes);
    try {
      switch (frame.type) {
        case net::MessageType::Shutdown:
          return Next::Shutdown;
        case net::MessageType::EvalReport:
          report_ = net::decode_eval_report(frame);
          break;
        case net::MessageType::SelectNotice: {
          const net::SelectNoticeMsg notice = net::decode_select_notice(frame);
          if (stale(notice.epoch) || (open && notice.epoch == round.epoch)) {
            break;
          }
          if (open) {
            HACCS_WARN << "agg " << config_.agg_id << ": round "
                       << round.epoch << " abandoned for round "
                       << notice.epoch;
          }
          round = Round{};
          open = true;
          round.epoch = notice.epoch;
          round.noticed = true;
          if (config_.round_timeout_ms > 0) {
            intake_deadline = fl::steady_ms() + config_.round_timeout_ms;
          }
          for (const std::uint32_t id : notice.clients) {
            if (in_subtree(id)) slot_of(id);
          }
          break;
        }
        case net::MessageType::TrainJob: {
          net::TrainJobMsg msg = net::decode_train_job(frame);
          if (stale(msg.epoch)) break;
          if (!open) {
            // The SelectNotice was lost (hostile link): an implicit round
            // whose slots follow arrival order — which IS slot order, since
            // the root sends jobs in slot order over one in-order link.
            open = true;
            round.epoch = msg.epoch;
          }
          if (msg.epoch != round.epoch) break;
          if (!in_subtree(msg.client_id)) {
            HACCS_WARN << "agg " << config_.agg_id << ": TrainJob for client "
                       << msg.client_id << " outside subtree — dropped";
            break;
          }
          fl::TrainJobSpec job = fl::read_train_job(msg).job;
          job.slot = slot_of(msg.client_id);
          if (round.global.empty()) round.global = std::move(msg.params);
          // A duplicated TrainJob is relayed once.
          round.jobs.emplace(job.slot, std::make_pair(job, std::move(frame)));
          break;
        }
        default:
          break;  // Heartbeat etc.: informational
      }
    } catch (const net::WireError& e) {
      HACCS_WARN << "agg " << config_.agg_id
                 << ": bad frame from the root: " << e.what();
    }
    if (open && round.noticed && round.jobs.size() == round.clients.size()) {
      return Next::Round;
    }
  }
}

bool MidTierAggregator::settle_round(net::Transport& upstream,
                                     fl::TransportDispatcher& dispatcher,
                                     Round& round) {
  served_epoch_ = round.epoch;
  epoch_.store(round.epoch, std::memory_order_relaxed);
  std::vector<fl::TrainJobSpec> jobs;
  std::vector<net::Frame> frames;
  for (auto& [slot, job] : round.jobs) {
    jobs.push_back(job.first);
    frames.push_back(std::move(job.second));
  }
  // A slot whose TrainJob never arrived fails as Timeout, like a flat
  // worker that never answers.
  std::vector<fl::TrainOutcome> outcomes(round.clients.size());
  for (fl::TrainOutcome& out : outcomes) out.failure = fl::FailureKind::Timeout;
  dispatcher.dispatch(
      jobs, [&](std::size_t j) { return std::move(frames[j]); }, round.global,
      outcomes);
  HierMetrics::get().jobs_relayed.inc(jobs.size());

  obs::Span span("subtree_settle", "hier");
  const auto arrived = static_cast<std::size_t>(
      std::count_if(outcomes.begin(), outcomes.end(),
                    [](const fl::TrainOutcome& out) { return out.delivered; }));
  // One group over the subtree's own slots: the same fold, in the same slot
  // order, that a grouped flat root runs for this group.
  std::vector<fl::PartialAggregate> partial(1);
  fl::fold_groups(
      jobs, round.global, outcomes, partial,
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
    chunk.epoch = round.epoch;
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
  trailer.epoch = round.epoch;
  trailer.agg_id = config_.agg_id;
  trailer.weight = folded.weight;
  trailer.n_chunks = n_chunks;
  for (std::size_t slot = 0; slot < round.clients.size(); ++slot) {
    const fl::TrainOutcome& out = outcomes[slot];
    net::SubtreeClientStat stat;
    stat.client_id = round.clients[slot];
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
  return true;
}

}  // namespace haccs::hier
