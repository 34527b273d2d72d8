#include "src/hier/tree_dispatcher.hpp"

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

/// Chunks stashed per aggregator before the root stops reading from it —
/// TCP backpressure then holds the data at the sender, which is what bounds
/// root memory to O(chunk × aggregators).
constexpr std::size_t kMaxStashChunks = 8;

struct TreeMetrics {
  obs::Counter& chunks =
      obs::Registry::global().counter("hier_root_chunks_folded_total");
  obs::Counter& torn =
      obs::Registry::global().counter("hier_rounds_torn_total");
  obs::Counter& salvaged =
      obs::Registry::global().counter("hier_aggs_salvaged_total");

  static TreeMetrics& get() {
    static TreeMetrics metrics;
    return metrics;
  }
};

}  // namespace

TreeDispatcher::TreeDispatcher(std::vector<net::Transport*> aggs,
                               fl::TransportDispatcherConfig config,
                               std::size_t num_workers)
    : core_(std::move(aggs), std::move(config)), num_workers_(num_workers) {
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
  if (num_workers_ == 0 || num_workers_ % core_.size() != 0) {
    throw std::invalid_argument(
        "TreeDispatcher: aggregator count must evenly divide num_workers");
  }
  partials_.assign(1, fl::PartialAggregate{});
}

std::size_t TreeDispatcher::group_of(std::size_t client_id) const {
  return (client_id % num_workers_) / (num_workers_ / core_.size());
}

bool TreeDispatcher::agg_finished(const AggRound& round,
                                  std::size_t model_size) const {
  if (!round.trailer) return false;
  if (round.update.n_chunks == 0) return true;
  return round.folded_chunks == round.update.n_chunks &&
         round.folded_upto == model_size;
}

bool TreeDispatcher::gate_open(const std::vector<AggRound>& rounds,
                               std::size_t a, std::uint64_t end) const {
  for (std::size_t p = 0; p < a; ++p) {
    const AggRound& prev = rounds[p];
    if (!prev.participating) continue;  // contributes nothing — skip
    if (prev.trailer && prev.update.n_chunks == 0) continue;
    if (prev.folded_upto < end) return false;
  }
  return true;
}

void TreeDispatcher::try_fold(std::vector<AggRound>& rounds,
                              std::vector<double>& acc) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t a = 0; a < rounds.size(); ++a) {
      AggRound& round = rounds[a];
      if (!round.participating) continue;
      const auto it = round.stash.find(round.folded_upto);
      if (it == round.stash.end()) continue;  // next chunk not here yet
      const std::uint64_t end = round.folded_upto + it->second.size();
      if (end > acc.size()) {
        HACCS_WARN << "tree: agg " << a << " chunk overruns the model ("
                   << end << " > " << acc.size() << ") — dropped";
        round.stash.erase(it);
        continue;
      }
      if (!gate_open(rounds, a, end)) continue;
      const std::vector<double>& data = it->second;
      for (std::size_t k = 0; k < data.size(); ++k) {
        acc[round.folded_upto + k] += data[k];
      }
      round.folded_upto = end;
      ++round.folded_chunks;
      round.stash.erase(it);
      TreeMetrics::get().chunks.inc();
      progress = true;
    }
  }
}

void TreeDispatcher::fan_out(std::span<const fl::TrainJobSpec> jobs,
                             const std::vector<float>& global_params,
                             std::vector<AggRound>& rounds,
                             std::vector<fl::TrainOutcome>& outcomes) {
  const obs::TraceContext trace_ctx =
      obs::trace_enabled() ? obs::round_context() : obs::TraceContext{};
  for (std::size_t a = 0; a < rounds.size(); ++a) {
    AggRound& round = rounds[a];
    if (round.job_indices.empty()) continue;
    // SelectNotice scopes the subtree round (and fixes the fold order),
    // then the TrainJobs follow in slot order down the same link.
    auto status = net::TransportStatus::Closed;  // a dead agg fails as Crash
    if (!core_.dead(a)) {
      net::SelectNoticeMsg notice;
      notice.epoch = jobs[round.job_indices.front()].epoch;
      for (const std::size_t j : round.job_indices) {
        notice.clients.push_back(static_cast<std::uint32_t>(jobs[j].client_id));
      }
      status = core_.send(a, net::encode_select_notice(notice));
    }
    for (std::size_t i = 0;
         i < round.job_indices.size() && status == net::TransportStatus::Ok;
         ++i) {
      status = core_.send(
          a, net::encode_train_job(
                 fl::make_train_job(jobs[round.job_indices[i]],
                                    core_.config().work, global_params,
                                    trace_ctx)));
    }
    if (status != net::TransportStatus::Ok) {
      for (const std::size_t j : round.job_indices) {
        outcomes[jobs[j].slot].delivered = false;
        outcomes[jobs[j].slot].failure = fl::send_failure(status);
      }
      continue;
    }
    round.participating = true;
    core_.sync_board(a, round.job_indices.size());
  }
}

void TreeDispatcher::receive(std::size_t a, const net::Frame& frame,
                             std::uint64_t epoch,
                             std::vector<AggRound>& rounds,
                             std::vector<double>& acc) {
  AggRound& round = rounds[a];
  try {
    if (frame.type == net::MessageType::SubtreeChunk) {
      auto msg = net::decode_subtree_chunk(frame);
      if (msg.epoch != epoch) return;  // stale round — drop
      round.stash.emplace(msg.offset, std::move(msg.data));
    } else if (frame.type == net::MessageType::SubtreeUpdate) {
      auto msg = net::decode_subtree_update(frame);
      if (msg.epoch != epoch) return;
      round.update = std::move(msg);
      round.trailer = true;  // n_chunks == 0 may open gates
    } else {
      return;  // Heartbeat: liveness already refreshed
    }
  } catch (const net::WireError& e) {
    HACCS_WARN << "tree: bad subtree frame from agg " << a << ": "
               << e.what();
    return;
  }
  try_fold(rounds, acc);
}

void TreeDispatcher::execute(std::span<const fl::TrainJobSpec> jobs,
                             const std::vector<float>& global_params,
                             std::vector<fl::TrainOutcome>& outcomes) {
  const std::size_t num_aggs = core_.size();
  const std::uint64_t epoch = jobs.empty() ? 0 : jobs.front().epoch;
  partials_.assign(1, fl::PartialAggregate{});
  core_.begin_round(epoch, jobs.size());

  std::vector<AggRound> rounds(num_aggs);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    rounds[group_of(jobs[j].client_id)].job_indices.push_back(j);
  }
  fan_out(jobs, global_params, rounds, outcomes);

  // Collection: fold gated chunks as they arrive.
  std::vector<double> acc(global_params.size(), 0.0);
  bool torn = false;
  auto unfinished = [&](std::size_t a) {
    return rounds[a].participating && !agg_finished(rounds[a], acc.size());
  };
  fl::CollectHooks hooks;
  hooks.owes = [&](std::size_t a) {
    // A full stash means the aggregator is ahead of the fold gate: stop
    // reading so TCP holds the bytes at the sender instead of root memory.
    return !torn && unfinished(a) &&
           rounds[a].stash.size() < kMaxStashChunks;
  };
  hooks.pending = [&](std::int64_t) {
    if (torn) return false;
    try_fold(rounds, acc);  // a salvaged predecessor may have opened gates
    for (std::size_t a = 0; a < num_aggs; ++a) {
      if (unfinished(a)) return true;
    }
    return false;
  };
  hooks.on_frame = [&](std::size_t a, const net::Frame& frame) {
    receive(a, frame, epoch, rounds, acc);
  };
  hooks.on_corrupt = [&](std::size_t a) {
    // The frame (possibly a chunk) is gone, so the aggregator can no longer
    // finish; the budget tears the round.
    HACCS_WARN << "tree: corrupt frame from agg " << a;
  };
  hooks.on_lost = [&](std::size_t a, fl::FailureKind kind) {
    if (!unfinished(a)) return;
    AggRound& round = rounds[a];
    if (round.folded_upto > 0 || round.folded_chunks > 0) {
      // Its partial sum is already mixed into the shared accumulator and
      // cannot be unfolded — the whole round tears.
      torn = true;
      return;
    }
    // Salvage: nothing folded, so this subtree simply contributed nothing —
    // bitwise the flat run with those workers dead.
    round.participating = false;
    round.trailer = false;
    round.stash.clear();
    for (const std::size_t j : round.job_indices) {
      fl::TrainOutcome& out = outcomes[jobs[j].slot];
      out.delivered = false;
      out.failure = kind;
    }
    TreeMetrics::get().salvaged.inc();
  };
  core_.collect(hooks);

  if (torn) {
    // Fail every slot: total weight goes to zero and the engine leaves the
    // model untouched — a torn round is a no-op, never a half-aggregate.
    TreeMetrics::get().torn.inc();
    HACCS_WARN << "tree: round " << epoch
               << " torn (aggregator lost after contributing); "
               << jobs.size() << " job(s) failed";
    for (const fl::TrainJobSpec& job : jobs) {
      fl::TrainOutcome& out = outcomes[job.slot];
      out.delivered = false;
      out.pre_aggregated = false;
      out.failure = fl::FailureKind::Crash;
      out.updated.clear();
    }
    core_.end_round();
    return;
  }

  // Settle: per-client stats -> outcomes, trailer weights -> the merged
  // partial. A stat counts only for a job routed to the aggregator that
  // sent it, and only once; clients no trailer settles keep their default
  // Crash.
  std::unordered_map<std::uint32_t, std::size_t> job_of_client;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    job_of_client[static_cast<std::uint32_t>(jobs[j].client_id)] = j;
  }
  std::vector<bool> settled(jobs.size(), false);
  fl::PartialAggregate& merged = partials_[0];
  for (std::size_t a = 0; a < num_aggs; ++a) {
    AggRound& round = rounds[a];
    if (!round.participating || !round.trailer) continue;
    for (const net::SubtreeClientStat& stat : round.update.stats) {
      const auto it = job_of_client.find(stat.client_id);
      if (it == job_of_client.end() || group_of(stat.client_id) != a ||
          settled[it->second]) {
        continue;  // not this subtree's job this round, or already settled
      }
      settled[it->second] = true;
      fl::TrainOutcome& out = outcomes[jobs[it->second].slot];
      if (stat.delivered) {
        out.delivered = true;
        out.pre_aggregated = true;
        out.weight = static_cast<double>(stat.sample_count);
        out.result.average_loss = stat.average_loss;
        out.result.final_loss = stat.final_loss;
        out.result.batches = static_cast<std::size_t>(stat.batches);
        ++merged.updates;
        core_.note_delivered(a);
      } else {
        out.delivered = false;
        out.failure = stat.failure <=
                              static_cast<std::uint8_t>(
                                  fl::FailureKind::CorruptUpdate)
                          ? static_cast<fl::FailureKind>(stat.failure)
                          : fl::FailureKind::Crash;
      }
    }
    merged.weight += round.update.weight;
  }
  if (merged.updates > 0) merged.sum = std::move(acc);
  core_.end_round();
}

}  // namespace haccs::hier
