#include "src/fl/client.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/fl/evaluation.hpp"
#include "src/nn/loss.hpp"

namespace haccs::fl {

LocalTrainResult train_local(nn::Sequential& model,
                             const data::Dataset& dataset,
                             const LocalTrainConfig& config, Rng& rng) {
  if (dataset.empty()) {
    throw std::invalid_argument("train_local: empty dataset");
  }
  if (config.batch_size == 0 || config.epochs == 0) {
    throw std::invalid_argument("train_local: zero batch size or epochs");
  }
  nn::SgdOptimizer optimizer(config.sgd);

  LocalTrainResult result;
  double loss_sum = 0.0;
  std::vector<std::size_t> indices(dataset.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    rng.shuffle(indices);
    for (std::size_t start = 0; start < indices.size();
         start += config.batch_size) {
      const std::size_t end =
          std::min(indices.size(), start + config.batch_size);
      const std::span<const std::size_t> batch(indices.data() + start,
                                               end - start);
      const auto labels = dataset.batch_labels(batch);

      model.zero_grad();
      const Tensor logits = model.forward(dataset.batch_features(batch));
      auto loss = nn::softmax_cross_entropy(logits, labels);
      model.backward(loss.grad_logits);
      optimizer.step(model);

      loss_sum += loss.loss;
      result.final_loss = loss.loss;
      ++result.batches;
    }
  }
  result.average_loss = loss_sum / static_cast<double>(result.batches);
  return result;
}

EvalResult evaluate(const nn::Sequential& model,
                    const data::Dataset& dataset) {
  return BlockedEvaluator({&dataset}).evaluate(model).front();
}

}  // namespace haccs::fl
