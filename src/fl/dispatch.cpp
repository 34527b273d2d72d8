#include "src/fl/dispatch.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <optional>
#include <utility>

#include "src/common/error.hpp"
#include "src/common/threadpool.hpp"
#include "src/fl/engine.hpp"
#include "src/fl/fedprox.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"
#include "src/obs/trace.hpp"
#include "src/tensor/vecops.hpp"

namespace haccs::fl {

namespace {

/// One accepted slot of the second pass, in slot order.
struct FoldTerm {
  std::size_t slot;
  std::size_t group;
  bool first;  ///< the first accepted slot of its group
};
}  // namespace

void TrainOutcome::reset() {
  std::vector<float> storage = std::move(updated);
  *this = TrainOutcome{};
  updated = std::move(storage);
  updated.clear();
}

LocalTrainResult run_local_job(const TrainJobSpec& job,
                               const data::Dataset& train_data,
                               nn::Sequential& model,
                               const std::vector<float>& global_params,
                               const LocalWorkConfig& config,
                               std::vector<float>& residual,
                               std::vector<float>& updated,
                               CompressedUpdate* compressed_out) {
  static obs::Histogram& train_ms =
      obs::Registry::global().histogram("local_train_wall_ms");
  obs::Span client_span("local_train", "fl");
  obs::StopWatch client_clock;
  // The job ships the forked stream as its seed; reconstructing here is
  // bit-identical to receiving the forked Rng itself.
  Rng rng(job.rng_seed);
  LocalTrainResult result;
  if (config.fedprox) {
    FedProxConfig prox;
    prox.local = config.local;
    prox.mu = config.fedprox_mu;
    prox.work_fraction = job.work_fraction;
    result = train_local_fedprox(model, global_params, train_data, prox, rng);
  } else {
    model.set_parameters(global_params);
    result = train_local(model, train_data, config.local, rng);
  }
  model.get_parameters(updated);
  if (config.compression.kind != CompressionKind::None) {
    // Compress the delta the client uploads; the server reconstructs
    // global + dense(delta). Residual state is per-client, and each client
    // appears at most once per round, so this is race-free.
    std::vector<float> delta(updated.size());
    vec::diff(delta, updated, global_params);
    auto compressed = compress_update(delta, config.compression, residual);
    for (std::size_t p = 0; p < updated.size(); ++p) {
      updated[p] = global_params[p] + compressed.dense[p];
    }
    if (compressed_out) *compressed_out = std::move(compressed);
  }
  train_ms.observe(client_clock.lap_ms());
  return result;
}

void fold_updates(std::span<FoldSlot> slots,
                  std::span<const float> global_params,
                  std::span<PartialAggregate> partials,
                  double max_update_norm, bool leave_deltas) {
  const std::size_t n = global_params.size();
  parallel_for(0, slots.size(), [&](std::size_t s) {
    FoldSlot& slot = slots[s];
    slot.accepted =
        !slot.updated.empty() &&
        update_is_valid(slot.updated, global_params, max_update_norm);
  });

  // Weights and counts in slot order, as a serial fold would add them.
  for (PartialAggregate& part : partials) {
    part.weight = 0.0;
    part.updates = 0;
  }
  std::vector<FoldTerm> terms;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const FoldSlot& slot = slots[s];
    if (!slot.accepted) continue;
    HACCS_CHECK_MSG(slot.group < partials.size(),
                    "fold_updates: group out of range");
    PartialAggregate& part = partials[slot.group];
    terms.push_back({s, slot.group, part.updates == 0});
    part.weight += slot.weight;
    ++part.updates;
  }
  for (PartialAggregate& part : partials) {
    if (part.updates == 0) {
      part.sum.clear();
    } else {
      part.sum.resize(n);
    }
  }

  parallel_for_ranges(n, kFoldRange, [&](std::size_t lo, std::size_t hi) {
    const std::size_t len = hi - lo;
    for (const FoldTerm& term : terms) {
      const std::span<double> sum(partials[term.group].sum.data() + lo, len);
      const std::span<float> src = slots[term.slot].updated.subspan(lo, len);
      const double weight = slots[term.slot].weight;
      if (term.first) {
        vec::assign_scaled(sum, src, weight);
      } else {
        vec::accumulate_scaled(sum, src, weight);
      }
      if (leave_deltas) vec::sub(src, global_params.subspan(lo, len));
    }
  });
}

void fold_groups(std::span<const TrainJobSpec> jobs,
                 std::span<const float> global_params,
                 std::span<TrainOutcome> outcomes,
                 std::span<PartialAggregate> partials,
                 const std::function<std::size_t(std::size_t)>& group_of,
                 double max_update_norm) {
  std::vector<FoldSlot> slots(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    TrainOutcome& out = outcomes[jobs[j].slot];
    if (!out.delivered || out.updated.empty()) continue;
    slots[j] = {out.updated, out.weight, group_of(jobs[j].client_id)};
  }
  fold_updates(slots, global_params, partials, max_update_norm);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (slots[j].updated.empty()) continue;
    TrainOutcome& out = outcomes[jobs[j].slot];
    if (slots[j].accepted) {
      out.pre_aggregated = true;
    } else {
      out.delivered = false;
      out.failure = FailureKind::CorruptUpdate;
    }
    out.updated.clear();
  }
}

InProcessDispatcher::InProcessDispatcher(
    const data::FederatedDataset& dataset,
    std::function<nn::Sequential()> model_factory, LocalWorkConfig config)
    : dataset_(dataset),
      prototype_(model_factory()),
      config_(std::move(config)),
      residuals_(dataset.clients.size()) {}

nn::Sequential InProcessDispatcher::take_model() {
  {
    std::lock_guard<std::mutex> lock(models_mutex_);
    if (!idle_models_.empty()) {
      nn::Sequential model = std::move(idle_models_.back());
      idle_models_.pop_back();
      return model;
    }
  }
  return prototype_.clone();
}

std::vector<std::size_t> longest_first(std::span<const TrainJobSpec> jobs,
                                       const data::FederatedDataset& dataset,
                                       const LocalTrainConfig& local) {
  std::vector<double> cost(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const data::Dataset& train = dataset.clients[jobs[j].client_id].train;
    const std::size_t batches =
        (train.size() + local.batch_size - 1) / local.batch_size *
        local.epochs;
    cost[j] = static_cast<double>(batches) * jobs[j].work_fraction;
  }
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (cost[a] != cost[b]) return cost[a] > cost[b];
    return jobs[a].slot < jobs[b].slot;
  });
  return order;
}

void InProcessDispatcher::execute(std::span<const TrainJobSpec> jobs,
                                  const std::vector<float>& global_params,
                                  std::vector<TrainOutcome>& outcomes) {
  // Clients within a round are independent, exactly like the real system.
  // A job's result does not depend on which lane or clone trains it:
  // run_local_job loads the global parameters first, every batch zeroes the
  // gradients, and the forward pass rewrites the layers' caches.
  const std::vector<std::size_t> order =
      longest_first(jobs, dataset_, config_.local);
  std::atomic<std::size_t> next{0};
  const std::size_t lanes =
      std::min(jobs.size(), ThreadPool::global().size() + 1);
  parallel_for(0, lanes, [&](std::size_t) {
    std::optional<nn::Sequential> model;
    for (std::size_t i = next++; i < order.size(); i = next++) {
      if (!model) model = take_model();
      const TrainJobSpec& job = jobs[order[i]];
      TrainOutcome& out = outcomes[job.slot];
      out.reset();
      out.result = run_local_job(job, dataset_.clients[job.client_id].train,
                                 *model, global_params, config_,
                                 residuals_[job.client_id], out.updated);
      out.delivered = true;
    }
    if (!model) return;
    std::lock_guard<std::mutex> lock(models_mutex_);
    idle_models_.push_back(std::move(*model));
  });
}

}  // namespace haccs::fl
