#include "src/core/haccs_system.hpp"

#include <memory>
#include <stdexcept>

#include "src/common/rng.hpp"
#include "src/nn/layer.hpp"

namespace haccs::core {

std::function<nn::Sequential()> default_model_factory(
    const data::FederatedDataset& dataset, std::uint64_t seed, bool use_cnn) {
  if (dataset.clients.empty()) {
    throw std::invalid_argument("default_model_factory: empty dataset");
  }
  const auto shape = dataset.clients[0].train.sample_shape();
  if (shape.size() != 3) {
    throw std::invalid_argument(
        "default_model_factory: expected (C, H, W) samples");
  }
  const std::size_t channels = shape[0], h = shape[1], w = shape[2];
  const std::size_t classes = dataset.num_classes;
  if (use_cnn) {
    return [=] {
      Rng rng(seed);
      return nn::make_lenet(channels, h, w, classes, rng);
    };
  }
  return [=] {
    Rng rng(seed);
    nn::Sequential model;
    model.add(std::make_unique<nn::Flatten>());
    model.add(nn::make_mlp(channels * h * w, {64}, classes, rng));
    return model;
  };
}

}  // namespace haccs::core
