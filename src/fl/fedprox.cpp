#include "src/fl/fedprox.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/common/error.hpp"
#include "src/nn/loss.hpp"

namespace haccs::fl {

LocalTrainResult train_local_fedprox(nn::Sequential& model,
                                     std::span<const float> global_params,
                                     const data::Dataset& dataset,
                                     const FedProxConfig& config, Rng& rng) {
  if (dataset.empty()) {
    throw std::invalid_argument("train_local_fedprox: empty dataset");
  }
  if (config.mu < 0.0) {
    throw std::invalid_argument("train_local_fedprox: mu must be >= 0");
  }
  if (config.work_fraction <= 0.0 || config.work_fraction > 1.0) {
    throw std::invalid_argument(
        "train_local_fedprox: work_fraction must be in (0, 1]");
  }
  if (global_params.size() != model.parameter_count()) {
    throw std::invalid_argument(
        "train_local_fedprox: global parameter size mismatch");
  }
  model.set_parameters(global_params);
  nn::SgdOptimizer optimizer(config.local.sgd);

  // Adds mu * (w - w_global) to the accumulated gradients — the gradient of
  // the proximal term (mu/2)||w - w_global||^2.
  const auto mu = static_cast<float>(config.mu);
  auto add_proximal_gradient = [&] {
    if (mu == 0.0f) return;
    std::size_t offset = 0;
    for (std::size_t li = 0; li < model.layer_count(); ++li) {
      auto params = model.layer(li).parameters();
      auto grads = model.layer(li).gradients();
      for (std::size_t pi = 0; pi < params.size(); ++pi) {
        auto p = params[pi]->data();
        auto g = grads[pi]->data();
        for (std::size_t i = 0; i < p.size(); ++i) {
          g[i] += mu * (p[i] - global_params[offset + i]);
        }
        offset += p.size();
      }
    }
    HACCS_CHECK(offset == global_params.size());
  };

  std::vector<std::size_t> indices(dataset.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;

  const std::size_t batches_per_epoch =
      (dataset.size() + config.local.batch_size - 1) / config.local.batch_size;
  const std::size_t total_batches = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             config.work_fraction *
             static_cast<double>(config.local.epochs * batches_per_epoch))));

  LocalTrainResult result;
  double loss_sum = 0.0;
  std::size_t remaining = total_batches;
  while (remaining > 0) {
    rng.shuffle(indices);
    for (std::size_t start = 0;
         start < indices.size() && remaining > 0;
         start += config.local.batch_size, --remaining) {
      const std::size_t end =
          std::min(indices.size(), start + config.local.batch_size);
      const std::span<const std::size_t> batch(indices.data() + start,
                                               end - start);
      const auto labels = dataset.batch_labels(batch);

      model.zero_grad();
      const Tensor logits = model.forward(dataset.batch_features(batch));
      auto loss = nn::softmax_cross_entropy(logits, labels);
      model.backward(loss.grad_logits);
      add_proximal_gradient();
      optimizer.step(model);

      loss_sum += loss.loss;
      result.final_loss = loss.loss;
      ++result.batches;
    }
  }
  result.average_loss = loss_sum / static_cast<double>(result.batches);
  return result;
}

double fedprox_work_fraction(double latency_ratio, double min_fraction) {
  if (latency_ratio < 1.0) latency_ratio = 1.0;
  if (min_fraction <= 0.0 || min_fraction > 1.0) {
    throw std::invalid_argument("fedprox_work_fraction: bad min_fraction");
  }
  // Inverse scaling, floored: a device 2x slower does half the work (but
  // never less than min_fraction of it).
  return std::max(min_fraction, 1.0 / latency_ratio);
}

}  // namespace haccs::fl
