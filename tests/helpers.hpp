// Test-side conveniences over the library's own paths. Each helper goes
// through the calls the binaries make, so a test that uses one exercises
// the code that ships rather than a test-only twin of it.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/data/dataset.hpp"
#include "src/nn/model.hpp"

namespace haccs {

/// Appends one sample the way the partitioners fill a dataset: add_rows,
/// then a write through mutable_features.
inline void add_sample(data::Dataset& ds, std::span<const float> features,
                       std::int64_t label) {
  const auto row = ds.mutable_features(ds.add_rows({&label, 1}));
  ASSERT_EQ(features.size(), row.size());
  std::copy(features.begin(), features.end(), row.begin());
}

/// Every accumulated gradient, flattened in layer and tensor order (the
/// order of Sequential::get_parameters).
inline std::vector<float> flat_gradients(const nn::Sequential& model) {
  auto& layers = const_cast<nn::Sequential&>(model);
  std::vector<float> flat;
  for (std::size_t i = 0; i < layers.layer_count(); ++i) {
    for (const Tensor* g : layers.layer(i).gradients()) {
      flat.insert(flat.end(), g->data().begin(), g->data().end());
    }
  }
  return flat;
}

/// The logits of `input` through the in-place inference pass, on fresh
/// buffers.
inline Tensor infer_copy(const nn::Sequential& model, Tensor input) {
  Tensor spare;
  model.infer(input, spare);
  return input;
}

}  // namespace haccs
