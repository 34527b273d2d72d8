// In-memory labeled dataset with batch extraction.
//
// Samples are stored contiguously (row-major, one flat feature block per
// sample) so batch assembly for training is a sequence of memcpy-sized
// copies. Labels are int64 class indices.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/tensor/tensor.hpp"

namespace haccs::data {

class Dataset {
 public:
  /// `sample_shape` excludes the batch dimension, e.g. {1, 28, 28}.
  /// `num_classes` bounds the valid label range [0, num_classes).
  Dataset(std::vector<std::size_t> sample_shape, std::size_t num_classes);

  /// Appends one sample per label, with zeroed features, and returns the
  /// index of the first. Throws std::invalid_argument, adding nothing, if
  /// any label is outside [0, num_classes()). The caller then writes each
  /// row through mutable_features().
  std::size_t add_rows(std::span<const std::int64_t> labels);

  /// Writable view of sample i's features. Distinct rows may be written
  /// from different threads.
  std::span<float> mutable_features(std::size_t i);

  std::size_t size() const { return labels_.size(); }
  bool empty() const { return labels_.empty(); }
  std::size_t num_classes() const { return num_classes_; }
  const std::vector<std::size_t>& sample_shape() const { return sample_shape_; }
  std::size_t sample_size() const { return sample_size_; }

  std::int64_t label(std::size_t i) const { return labels_.at(i); }
  std::span<const std::int64_t> labels() const { return labels_; }
  std::span<const float> features(std::size_t i) const;

  /// Assembles the batch tensor (N, *sample_shape) for the given indices.
  Tensor batch_features(std::span<const std::size_t> indices) const;
  std::vector<std::int64_t> batch_labels(
      std::span<const std::size_t> indices) const;

  /// Raw label counts, length num_classes() — the P(y) summary before
  /// normalization or noise.
  std::vector<double> label_counts() const;

 private:
  std::vector<std::size_t> sample_shape_;
  std::size_t sample_size_;
  std::size_t num_classes_;
  std::vector<float> features_;
  std::vector<std::int64_t> labels_;
};

}  // namespace haccs::data
