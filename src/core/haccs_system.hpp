// The model every example, bench and serving binary trains by default.
//
// A HACCS run is a core::HaccsSelector (clustering + Algorithm 1) driven by
// an fl::FederatedTrainer over a federation; this header supplies the model
// factory those callers hand the trainer. Quickstart:
//
//   auto gen = data::SyntheticImageGenerator(
//       data::SyntheticImageConfig::femnist_like());
//   Rng rng(1);
//   auto fed = data::partition_majority_label(gen, {}, rng);
//   core::HaccsSelector selector(fed, core::HaccsConfig{});
//   fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
//                                fl::EngineConfig{});
//   auto history = trainer.run(selector);
//   double tta = history.time_to_accuracy(0.8);
#pragma once

#include <cstdint>
#include <functional>

#include "src/data/partition.hpp"
#include "src/nn/model.hpp"

namespace haccs::core {

/// A model factory suited to the dataset's sample shape: LeNet-style CNN
/// when `use_cnn`, otherwise an MLP over flattened features. The returned
/// factory is deterministic in `seed`.
std::function<nn::Sequential()> default_model_factory(
    const data::FederatedDataset& dataset, std::uint64_t seed,
    bool use_cnn = false);

}  // namespace haccs::core
