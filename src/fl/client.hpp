// Local client training and evaluation primitives.
//
// In federated averaging the client receives the global parameters, runs a
// few epochs of minibatch SGD on its local split, and returns the updated
// parameters. The round engine calls these helpers with a single shared
// model instance per simulated client turn (set_parameters / train /
// get_parameters), which matches FedAvg semantics without allocating one
// model per client.
#pragma once

#include <cstdint>

#include "src/common/rng.hpp"
#include "src/data/dataset.hpp"
#include "src/nn/model.hpp"
#include "src/nn/optimizer.hpp"

namespace haccs::fl {

struct LocalTrainConfig {
  std::size_t epochs = 1;
  std::size_t batch_size = 32;
  nn::SgdConfig sgd;
};

struct LocalTrainResult {
  double average_loss = 0.0;  ///< mean loss over all minibatches
  double final_loss = 0.0;    ///< loss of the last minibatch
  std::size_t batches = 0;
};

/// Trains `model` in place on `dataset`. Batch order is drawn from `rng`.
/// Throws if the dataset is empty.
LocalTrainResult train_local(nn::Sequential& model,
                             const data::Dataset& dataset,
                             const LocalTrainConfig& config, Rng& rng);

struct EvalResult {
  double loss = 0.0;
  double accuracy = 0.0;
  std::size_t samples = 0;
};

/// Evaluates `model` on the full dataset through the const inference path
/// in 128-row chunks (no layer state is touched, so the same model instance
/// can be evaluated from several threads at once): the one-set case of
/// fl::BlockedEvaluator. Returns zeros for an empty dataset.
EvalResult evaluate(const nn::Sequential& model, const data::Dataset& dataset);

}  // namespace haccs::fl
