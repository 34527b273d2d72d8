#include "src/fl/dispatch.hpp"

#include <algorithm>
#include <utility>

#include "src/common/threadpool.hpp"
#include "src/fl/engine.hpp"
#include "src/fl/fedprox.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"
#include "src/obs/trace.hpp"
#include "src/tensor/vecops.hpp"

namespace haccs::fl {

TrainOutcome run_local_job(const TrainJobSpec& job,
                           const data::Dataset& train_data,
                           nn::Sequential& model,
                           const std::vector<float>& global_params,
                           const LocalWorkConfig& config,
                           std::vector<float>& residual,
                           CompressedUpdate* compressed_out) {
  static obs::Histogram& train_ms =
      obs::Registry::global().histogram("local_train_wall_ms");
  obs::Span client_span("local_train", "fl");
  obs::StopWatch client_clock;
  // The job ships the forked stream as its seed; reconstructing here is
  // bit-identical to receiving the forked Rng itself.
  Rng rng(job.rng_seed);
  TrainOutcome out;
  if (config.fedprox) {
    FedProxConfig prox;
    prox.local = config.local;
    prox.mu = config.fedprox_mu;
    prox.work_fraction = job.work_fraction;
    out.result =
        train_local_fedprox(model, global_params, train_data, prox, rng);
  } else {
    model.set_parameters(global_params);
    out.result = train_local(model, train_data, config.local, rng);
  }
  auto updated = model.get_parameters();
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
  out.updated = std::move(updated);
  out.delivered = true;
  train_ms.observe(client_clock.lap_ms());
  return out;
}

bool fold_into_partial(PartialAggregate& agg, std::span<const float> updated,
                       std::span<const float> global_params, double weight,
                       double max_update_norm, std::vector<float>& delta) {
  delta.resize(updated.size());
  vec::diff(delta, updated, global_params);
  if (!update_is_valid(delta, max_update_norm)) return false;
  if (agg.sum.empty()) agg.sum.assign(global_params.size(), 0.0);
  vec::accumulate_scaled(agg.sum, updated, weight);
  agg.weight += weight;
  ++agg.updates;
  return true;
}

void fold_groups(std::span<const TrainJobSpec> jobs,
                 std::span<const float> global_params,
                 std::span<TrainOutcome> outcomes,
                 std::span<PartialAggregate> partials,
                 const std::function<std::size_t(std::size_t)>& group_of,
                 double max_update_norm) {
  std::vector<float> delta;
  for (const TrainJobSpec& job : jobs) {
    TrainOutcome& out = outcomes[job.slot];
    if (!out.delivered || out.updated.empty()) continue;
    if (fold_into_partial(partials[group_of(job.client_id)], out.updated,
                          global_params, out.weight, max_update_norm, delta)) {
      out.pre_aggregated = true;
    } else {
      out.delivered = false;
      out.failure = FailureKind::CorruptUpdate;
    }
    out.updated.clear();
    out.updated.shrink_to_fit();
  }
}

InProcessDispatcher::InProcessDispatcher(
    const data::FederatedDataset& dataset,
    std::function<nn::Sequential()> model_factory, LocalWorkConfig config)
    : dataset_(dataset),
      model_factory_(std::move(model_factory)),
      config_(std::move(config)),
      residuals_(dataset.clients.size()) {}

void InProcessDispatcher::execute(std::span<const TrainJobSpec> jobs,
                                  const std::vector<float>& global_params,
                                  std::vector<TrainOutcome>& outcomes) {
  // Clients within a round are independent, exactly like the real system.
  parallel_for(0, jobs.size(), [&](std::size_t j) {
    const TrainJobSpec& job = jobs[j];
    nn::Sequential local_model = model_factory_();
    outcomes[job.slot] =
        run_local_job(job, dataset_.clients[job.client_id].train, local_model,
                      global_params, config_, residuals_[job.client_id]);
  });
}

}  // namespace haccs::fl
