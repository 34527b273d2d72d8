#include "src/nn/optimizer.hpp"

#include <stdexcept>

#include "src/common/error.hpp"
#include "src/tensor/vecops.hpp"

namespace haccs::nn {

SgdOptimizer::SgdOptimizer(SgdConfig config) : config_(config) {
  if (config_.learning_rate <= 0.0) {
    throw std::invalid_argument("SgdOptimizer: learning rate must be > 0");
  }
  if (config_.momentum < 0.0 || config_.momentum >= 1.0) {
    throw std::invalid_argument("SgdOptimizer: momentum must be in [0, 1)");
  }
  if (config_.weight_decay < 0.0) {
    throw std::invalid_argument("SgdOptimizer: weight decay must be >= 0");
  }
}

void SgdOptimizer::step(Sequential& model) {
  const float lr = static_cast<float>(config_.learning_rate);
  const float mu = static_cast<float>(config_.momentum);
  const float wd = static_cast<float>(config_.weight_decay);

  std::size_t buffer_index = 0;
  for (std::size_t li = 0; li < model.layer_count(); ++li) {
    Layer& layer = model.layer(li);
    auto params = layer.parameters();
    auto grads = layer.gradients();
    HACCS_CHECK_MSG(params.size() == grads.size(),
                    "optimizer: param/grad arity mismatch");
    for (std::size_t pi = 0; pi < params.size(); ++pi, ++buffer_index) {
      Tensor& p = *params[pi];
      Tensor& g = *grads[pi];
      HACCS_CHECK_MSG(p.size() == g.size(), "optimizer: param/grad size");
      auto pd = p.data();
      auto gd = g.data();
      if (mu == 0.0f) {
        vec::sgd_step(pd, gd, lr, wd);
        continue;
      }
      if (velocity_.size() <= buffer_index) velocity_.resize(buffer_index + 1);
      auto& v = velocity_[buffer_index];
      if (v.size() != pd.size()) v.assign(pd.size(), 0.0f);
      vec::sgd_momentum_step(pd, gd, v, lr, mu, wd);
    }
  }
}

}  // namespace haccs::nn
