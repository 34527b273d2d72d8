#include "src/hier/mid_tier.hpp"

#include <algorithm>
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

}  // namespace

// The subtree fleet admits topology.slice(agg_id) and refuses an agg_id out
// of range; the dispatcher serve() builds checks the status board's rows.
MidTierAggregator::MidTierAggregator(const MidTierConfig& config,
                                     Fleet::Acceptor accept)
    : config_(config),
      fleet_({.topology = config.topology,
              .agg_id = config.agg_id,
              .io_timeout_ms = deadline(config.handshake_timeout_ms)},
             std::move(accept)) {}

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
  net::TopologyHelloMsg hello = config_.topology.hello(config_.agg_id);
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
             << hello.worker_begin << ", " << hello.worker_end << "), "
             << hello.num_clients << " clients)";
  return true;
}

bool MidTierAggregator::serve(net::Transport& upstream) {
  const fl::HeartbeatThread heartbeat(config_.heartbeat_interval_ms, [&] {
    return send_upstream(upstream, net::encode_heartbeat());
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
  // Peer p is the slice's worker begin + p, and the dispatcher sends client
  // c to peer c % per (its own one-aggregator topology over the per peers):
  // since per divides the worker count, that is c's worker.
  fl::TransportDispatcher dispatcher(fleet_.transports(), std::move(dispatch));
  for (;;) {
    net::SubtreeRoundMsg round;
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

MidTierAggregator::Next MidTierAggregator::gather(
    net::Transport& upstream, net::SubtreeRoundMsg& round) {
  for (;;) {
    net::Frame frame;
    const auto status = upstream.recv(&frame, -1);
    if (status == net::TransportStatus::Closed) return Next::Lost;
    // A lost round fails at the root's collection budget.
    if (status != net::TransportStatus::Ok) continue;
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
        case net::MessageType::SubtreeRound: {
          round = net::decode_subtree_round(frame);
          // A stale or duplicated round was served already.
          if (served_epoch_ && round.epoch <= *served_epoch_) break;
          const auto outside = std::find_if(
              round.jobs.begin(), round.jobs.end(),
              [&](const net::SubtreeJob& job) {
                return config_.topology.agg_of(job.client_id) !=
                       config_.agg_id;
              });
          if (outside == round.jobs.end()) return Next::Round;
          HACCS_WARN << "agg " << config_.agg_id << ": round " << round.epoch
                     << " names client " << outside->client_id
                     << ", outside the subtree — dropped";
          break;
        }
        default:
          break;  // Heartbeat etc.: informational
      }
    } catch (const net::WireError& e) {
      HACCS_WARN << "agg " << config_.agg_id
                 << ": bad frame from the root: " << e.what();
    }
  }
}

bool MidTierAggregator::settle_round(net::Transport& upstream,
                                     fl::TransportDispatcher& dispatcher,
                                     const net::SubtreeRoundMsg& round) {
  served_epoch_ = round.epoch;
  const fl::LocalWorkConfig work = fl::read_work_recipe(round.recipe);
  std::vector<fl::TrainJobSpec> jobs;  // slot = index
  for (const net::SubtreeJob& job : round.jobs) {
    jobs.push_back({jobs.size(), job.client_id, round.epoch, job.rng_seed,
                    job.work_fraction});
  }
  // Each worker gets the TrainJob a flat root would send it.
  std::vector<fl::TrainOutcome> outcomes(jobs.size());
  dispatcher.dispatch(
      jobs,
      [&](std::size_t j) {
        return net::encode_train_job(
            fl::make_train_job(jobs[j], work, round.params, round.trace));
      },
      round.params, outcomes);

  obs::Span span("subtree_settle", "hier");
  const auto arrived = static_cast<std::size_t>(
      std::count_if(outcomes.begin(), outcomes.end(),
                    [](const fl::TrainOutcome& out) { return out.delivered; }));
  // One group over the subtree's own slots: the same fold, in the same slot
  // order and under the same norm bound, that a grouped flat root runs for
  // this group.
  fl::fold_groups(
      jobs, round.params, outcomes, std::span(&partial_, 1),
      [](std::size_t) { return std::size_t{0}; }, round.max_update_norm);
  stats_.folded += partial_.updates;
  stats_.rejected += arrived - partial_.updates;
  HierMetrics::get().folded.inc(partial_.updates);
  HierMetrics::get().rejected.inc(arrived - partial_.updates);

  // The whole partial goes up in the round's one frame, with the stats
  // that let the root's engine keep its per-slot bookkeeping.
  net::SubtreeUpdateMsg update;
  update.epoch = round.epoch;
  update.agg_id = config_.agg_id;
  update.weight = partial_.weight;
  update.sum = std::move(partial_.sum);
  for (std::size_t slot = 0; slot < jobs.size(); ++slot) {
    const fl::TrainOutcome& out = outcomes[slot];
    net::SubtreeClientStat stat;
    stat.client_id = round.jobs[slot].client_id;
    stat.delivered = out.delivered ? 1 : 0;
    stat.failure = static_cast<std::uint8_t>(out.failure);
    stat.average_loss = out.result.average_loss;
    stat.final_loss = out.result.final_loss;
    stat.batches = out.result.batches;
    stat.sample_count = static_cast<std::uint64_t>(out.weight);
    update.stats.push_back(stat);
  }
  const net::Frame frame = net::encode_subtree_update(update);
  partial_.sum = std::move(update.sum);  // its storage serves the next round
  if (!send_upstream(upstream, frame)) return false;
  ++stats_.rounds;
  HierMetrics::get().rounds.inc();
  return true;
}

}  // namespace haccs::hier
