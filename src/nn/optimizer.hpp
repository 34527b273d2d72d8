// Stochastic gradient descent with optional momentum and weight decay —
// the optimizer used by local client training in federated averaging.
#pragma once

#include <vector>

#include "src/nn/model.hpp"

namespace haccs::nn {

struct SgdConfig {
  double learning_rate = 0.01;
  double momentum = 0.0;      ///< classical (heavy-ball) momentum
  double weight_decay = 0.0;  ///< L2 regularization coefficient
};

class SgdOptimizer {
 public:
  explicit SgdOptimizer(SgdConfig config);

  /// Applies one update step using the gradients currently accumulated in
  /// the model. Momentum buffers are lazily sized on first use and reused
  /// across steps; each local run builds a fresh optimizer.
  void step(Sequential& model);

  const SgdConfig& config() const { return config_; }
  void set_learning_rate(double lr) { config_.learning_rate = lr; }

 private:
  SgdConfig config_;
  std::vector<std::vector<float>> velocity_;  // one buffer per param tensor
};

}  // namespace haccs::nn
