#include "src/nn/model.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/common/error.hpp"

namespace haccs::nn {

void Sequential::add(std::unique_ptr<Layer> layer) {
  HACCS_CHECK_MSG(layer != nullptr, "Sequential::add: null layer");
  if (first_with_params_ == layers_.size() && layer->parameters().empty()) {
    ++first_with_params_;
  }
  layers_.push_back(std::move(layer));
}

void Sequential::add(Sequential tail) {
  for (auto& layer : tail.layers_) add(std::move(layer));
}

Sequential Sequential::clone() const {
  Sequential copy;
  for (const auto& layer : layers_) copy.add(layer->clone());
  return copy;
}

Tensor Sequential::forward(Tensor x) {
  for (auto& layer : layers_) x = layer->forward(std::move(x));
  return x;
}

void Sequential::infer(Tensor& x, Tensor& spare) const {
  for (const auto& layer : layers_) layer->infer(x, spare);
}

std::size_t Sequential::min_invariant_rows() const {
  std::size_t rows = 1;
  for (const auto& layer : layers_) {
    rows = std::max(rows, layer->min_invariant_rows());
  }
  return rows;
}

void Sequential::backward(const Tensor& grad_output) {
  if (first_with_params_ == layers_.size()) return;
  const Tensor* g = &grad_output;
  Tensor grad;
  for (std::size_t i = layers_.size() - 1; i > first_with_params_; --i) {
    grad = layers_[i]->backward(*g);
    g = &grad;
  }
  layers_[first_with_params_]->backward_params(*g);
}

void Sequential::zero_grad() {
  for (auto& layer : layers_) layer->zero_grad();
}

std::size_t Sequential::parameter_count() const {
  std::size_t total = 0;
  for (const auto& layer : layers_) {
    for (Tensor* p : const_cast<Layer&>(*layer).parameters()) {
      total += p->size();
    }
  }
  return total;
}

std::vector<float> Sequential::get_parameters() const {
  std::vector<float> flat;
  get_parameters(flat);
  return flat;
}

void Sequential::get_parameters(std::vector<float>& flat) const {
  flat.clear();
  flat.reserve(parameter_count());
  for (const auto& layer : layers_) {
    for (Tensor* p : const_cast<Layer&>(*layer).parameters()) {
      auto d = p->data();
      flat.insert(flat.end(), d.begin(), d.end());
    }
  }
}

void Sequential::set_parameters(std::span<const float> flat) {
  std::size_t offset = 0;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->parameters()) {
      if (offset + p->size() > flat.size()) {
        throw std::invalid_argument("set_parameters: flat vector too short");
      }
      std::copy(flat.begin() + static_cast<std::ptrdiff_t>(offset),
                flat.begin() + static_cast<std::ptrdiff_t>(offset + p->size()),
                p->data().begin());
      offset += p->size();
    }
  }
  if (offset != flat.size()) {
    throw std::invalid_argument("set_parameters: flat vector too long");
  }
}

Sequential make_mlp(std::size_t input_dim,
                    const std::vector<std::size_t>& hidden,
                    std::size_t classes, Rng& rng) {
  Sequential model;
  std::size_t prev = input_dim;
  for (std::size_t width : hidden) {
    model.add(std::make_unique<Dense>(prev, width, rng));
    model.add(std::make_unique<ReLU>());
    prev = width;
  }
  model.add(std::make_unique<Dense>(prev, classes, rng));
  return model;
}

Sequential make_lenet(std::size_t channels, std::size_t h, std::size_t w,
                      std::size_t classes, Rng& rng) {
  // conv5x5(pad 2) keeps spatial size; each pool halves it.
  if (h / 4 == 0 || w / 4 == 0) {
    throw std::invalid_argument("make_lenet: input too small for two pools");
  }
  Sequential model;
  model.add(std::make_unique<Conv2d>(channels, 6, 5, 1, 2, rng));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<MaxPool2d>(2));
  model.add(std::make_unique<Conv2d>(6, 16, 5, 1, 2, rng));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<MaxPool2d>(2));
  model.add(std::make_unique<Flatten>());
  const std::size_t flat = 16 * (h / 4) * (w / 4);
  model.add(std::make_unique<Dense>(flat, 120, rng));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<Dense>(120, classes, rng));
  return model;
}

Sequential make_cnn_mini(std::size_t channels, std::size_t h, std::size_t w,
                         std::size_t classes, Rng& rng) {
  if (h / 2 == 0 || w / 2 == 0) {
    throw std::invalid_argument("make_cnn_mini: input too small");
  }
  Sequential model;
  model.add(std::make_unique<Conv2d>(channels, 4, 3, 1, 1, rng));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<MaxPool2d>(2));
  model.add(std::make_unique<Flatten>());
  const std::size_t flat = 4 * (h / 2) * (w / 2);
  model.add(std::make_unique<Dense>(flat, 32, rng));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<Dense>(32, classes, rng));
  return model;
}

}  // namespace haccs::nn
