#include "src/hier/tree_dispatcher.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/common/logging.hpp"
#include "src/fl/protocol.hpp"
#include "src/net/wire.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"

namespace haccs::hier {

namespace {

obs::Counter& salvaged_counter() {
  static obs::Counter& counter =
      obs::Registry::global().counter("hier_aggs_salvaged_total");
  return counter;
}

/// Fails every slot of one subtree's share of the round with `kind`.
void fail_jobs(const std::vector<std::size_t>& job_indices,
               std::span<const fl::TrainJobSpec> jobs, fl::FailureKind kind,
               std::vector<fl::TrainOutcome>& outcomes) {
  for (const std::size_t j : job_indices) {
    outcomes[jobs[j].slot].delivered = false;
    outcomes[jobs[j].slot].failure = kind;
  }
}

}  // namespace

TreeDispatcher::TreeDispatcher(std::vector<net::Transport*> aggs,
                               fl::TransportDispatcherConfig config,
                               net::Topology topology)
    : core_(std::move(aggs), std::move(config)), topology_(topology) {
  const fl::TransportDispatcherConfig& c = core_.config();
  const std::pair<bool, const char*> flat_only[] = {
      {c.quorum_fraction < 1.0, "quorum_fraction < 1"},
      {static_cast<bool>(c.reacquire), "reacquire"},
      {c.agg_groups > 0, "agg_groups > 0"}};
  for (const auto& [set, field] : flat_only) {
    if (set) {
      throw std::invalid_argument(std::string("TreeDispatcher: ") + field +
                                  " is a flat-root setting a tree cannot "
                                  "honour");
    }
  }
  if (topology_.aggs() != core_.size()) {
    throw std::invalid_argument(
        "TreeDispatcher: the topology has " +
        std::to_string(topology_.aggs()) + " aggregators but there are " +
        std::to_string(core_.size()) + " transports");
  }
  partials_.assign(core_.size(), fl::PartialAggregate{});
}

void TreeDispatcher::fan_out(std::span<const fl::TrainJobSpec> jobs,
                             const std::vector<float>& global_params,
                             std::vector<AggRound>& rounds,
                             std::vector<fl::TrainOutcome>& outcomes) {
  // One frame per subtree: the parameters and the recipe cross each root
  // link once, whatever the subtree's job count.
  net::SubtreeRoundMsg msg;
  msg.epoch = jobs.empty() ? 0 : jobs.front().epoch;
  msg.max_update_norm = core_.config().max_update_norm;
  msg.recipe = fl::make_work_recipe(core_.config().work);
  msg.params = global_params;
  msg.trace = obs::trace_enabled() ? obs::round_context() : obs::TraceContext{};
  for (std::size_t a = 0; a < rounds.size(); ++a) {
    AggRound& round = rounds[a];
    if (round.job_indices.empty()) continue;
    msg.jobs.clear();
    for (const std::size_t j : round.job_indices) {  // slot order
      msg.jobs.push_back({static_cast<std::uint32_t>(jobs[j].client_id),
                          jobs[j].rng_seed, jobs[j].work_fraction});
    }
    // A dead aggregator fails as Crash.
    const auto status = core_.dead(a)
                            ? net::TransportStatus::Closed
                            : core_.send(a, net::encode_subtree_round(msg));
    if (status != net::TransportStatus::Ok) {
      fail_jobs(round.job_indices, jobs, fl::send_failure(status), outcomes);
      continue;
    }
    round.participating = true;
    core_.sync_board(a, round.job_indices.size());
  }
}

void TreeDispatcher::settle(std::size_t a, AggRound& round,
                            std::span<const fl::TrainJobSpec> jobs,
                            std::size_t model_size,
                            std::vector<fl::TrainOutcome>& outcomes) {
  net::SubtreeUpdateMsg& update = *round.update;
  // A stat settles one of this subtree's jobs, once: a stat naming another
  // subtree's client, a client outside the round or a settled one is void.
  std::unordered_map<std::uint32_t, std::size_t> unsettled;
  for (const std::size_t j : round.job_indices) {
    unsettled.emplace(static_cast<std::uint32_t>(jobs[j].client_id), j);
  }
  std::vector<std::pair<std::size_t, const net::SubtreeClientStat*>> settles;
  bool any_delivered = false;
  double delivered_weight = 0.0;
  for (const net::SubtreeClientStat& stat : update.stats) {
    const auto it = unsettled.find(stat.client_id);
    if (it == unsettled.end()) continue;
    settles.emplace_back(it->second, &stat);
    unsettled.erase(it);
    if (stat.delivered) {
      any_delivered = true;
      delivered_weight += static_cast<double>(stat.sample_count);
    }
  }

  // The update is input from outside the process: it counts only when it
  // is self-consistent, or a NaN or a stray weight would reach the model.
  const std::vector<double>& sum = update.sum;
  const bool valid =
      (sum.empty() || sum.size() == model_size) &&
      std::all_of(sum.begin(), sum.end(),
                  [](double v) { return std::isfinite(v); }) &&
      sum.empty() != any_delivered && update.weight == delivered_weight;
  if (!valid) {
    HACCS_WARN << "tree: agg " << a << " sent an inconsistent SubtreeUpdate ("
               << sum.size() << " of " << model_size << " sum elements, weight "
               << update.weight << " vs " << delivered_weight
               << " delivered); its subtree fails as CorruptUpdate";
    fail_jobs(round.job_indices, jobs, fl::FailureKind::CorruptUpdate,
              outcomes);
    return;
  }

  fl::PartialAggregate& partial = partials_[a];
  for (const auto& [j, stat] : settles) {
    fl::TrainOutcome& out = outcomes[jobs[j].slot];
    if (stat->delivered) {
      out.delivered = true;
      out.pre_aggregated = true;
      out.weight = static_cast<double>(stat->sample_count);
      out.result.average_loss = stat->average_loss;
      out.result.final_loss = stat->final_loss;
      out.result.batches = static_cast<std::size_t>(stat->batches);
      ++partial.updates;
      core_.note_delivered(a);
    } else {
      out.delivered = false;
      out.failure =
          stat->failure <=
                  static_cast<std::uint8_t>(fl::FailureKind::CorruptUpdate)
              ? static_cast<fl::FailureKind>(stat->failure)
              : fl::FailureKind::Crash;
    }
  }
  partial.sum = std::move(update.sum);
  partial.weight = update.weight;
}

void TreeDispatcher::execute(std::span<const fl::TrainJobSpec> jobs,
                             const std::vector<float>& global_params,
                             std::vector<fl::TrainOutcome>& outcomes) {
  const std::size_t num_aggs = core_.size();
  const std::uint64_t epoch = jobs.empty() ? 0 : jobs.front().epoch;
  partials_.assign(num_aggs, fl::PartialAggregate{});
  core_.begin_round(epoch, jobs.size());

  std::vector<AggRound> rounds(num_aggs);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    rounds[topology_.agg_of(jobs[j].client_id)].job_indices.push_back(j);
  }
  fan_out(jobs, global_params, rounds, outcomes);

  // Collection: one SubtreeUpdate per participating aggregator.
  const auto owes = [&](std::size_t a) {
    return rounds[a].participating && !rounds[a].update;
  };
  fl::CollectHooks hooks;
  hooks.owes = owes;
  hooks.pending = [&](std::int64_t) {
    for (std::size_t a = 0; a < num_aggs; ++a) {
      if (owes(a)) return true;
    }
    return false;
  };
  hooks.on_frame = [&](std::size_t a, const net::Frame& frame) {
    // Heartbeats: liveness is already refreshed.
    if (frame.type != net::MessageType::SubtreeUpdate) return;
    try {
      net::SubtreeUpdateMsg msg = net::decode_subtree_update(frame);
      if (msg.epoch == epoch) rounds[a].update = std::move(msg);  // else stale
    } catch (const net::WireError& e) {
      HACCS_WARN << "tree: bad SubtreeUpdate from agg " << a << ": "
                 << e.what();
    }
  };
  hooks.on_corrupt = [&](std::size_t a) {
    // If that was the update, the budget salvages the subtree.
    HACCS_WARN << "tree: corrupt frame from agg " << a;
  };
  hooks.on_lost = [&](std::size_t a, fl::FailureKind kind) {
    if (!owes(a)) return;
    // Salvage: the subtree contributes nothing — bitwise the grouped flat
    // run with those workers dead.
    rounds[a].participating = false;
    fail_jobs(rounds[a].job_indices, jobs, kind, outcomes);
    salvaged_counter().inc();
  };
  core_.collect(hooks);

  for (std::size_t a = 0; a < num_aggs; ++a) {
    if (rounds[a].update) {
      settle(a, rounds[a], jobs, global_params.size(), outcomes);
    }
  }
  core_.end_round();
}

}  // namespace haccs::hier
