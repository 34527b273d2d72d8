#include "src/data/dataset.hpp"

#include <algorithm>
#include <stdexcept>

namespace haccs::data {

Dataset::Dataset(std::vector<std::size_t> sample_shape, std::size_t num_classes)
    : sample_shape_(std::move(sample_shape)), num_classes_(num_classes) {
  if (sample_shape_.empty()) {
    throw std::invalid_argument("Dataset: empty sample shape");
  }
  if (num_classes_ == 0) {
    throw std::invalid_argument("Dataset: zero classes");
  }
  sample_size_ = 1;
  for (std::size_t e : sample_shape_) {
    if (e == 0) throw std::invalid_argument("Dataset: zero extent");
    sample_size_ *= e;
  }
}

std::size_t Dataset::add_rows(std::span<const std::int64_t> labels) {
  for (std::int64_t label : labels) {
    if (label < 0 || static_cast<std::size_t>(label) >= num_classes_) {
      throw std::invalid_argument("Dataset: label out of range");
    }
  }
  const std::size_t first = size();
  features_.resize(features_.size() + labels.size() * sample_size_);
  labels_.insert(labels_.end(), labels.begin(), labels.end());
  return first;
}

std::span<const float> Dataset::features(std::size_t i) const {
  if (i >= size()) throw std::out_of_range("Dataset::features");
  return {features_.data() + i * sample_size_, sample_size_};
}

std::span<float> Dataset::mutable_features(std::size_t i) {
  if (i >= size()) throw std::out_of_range("Dataset::mutable_features");
  return {features_.data() + i * sample_size_, sample_size_};
}

Tensor Dataset::batch_features(std::span<const std::size_t> indices) const {
  if (indices.empty()) {
    throw std::invalid_argument("Dataset::batch_features: empty batch");
  }
  std::vector<std::size_t> shape;
  shape.reserve(sample_shape_.size() + 1);
  shape.push_back(indices.size());
  shape.insert(shape.end(), sample_shape_.begin(), sample_shape_.end());
  // Appended row by row into reserved storage: every element is written
  // once, with no zero fill ahead of the copies.
  std::vector<float> values;
  values.reserve(indices.size() * sample_size_);
  for (std::size_t i : indices) {
    const auto src = features(i);
    values.insert(values.end(), src.begin(), src.end());
  }
  return Tensor(std::move(shape), std::move(values));
}

std::vector<std::int64_t> Dataset::batch_labels(
    std::span<const std::size_t> indices) const {
  std::vector<std::int64_t> out;
  out.reserve(indices.size());
  for (std::size_t i : indices) out.push_back(label(i));
  return out;
}

std::vector<double> Dataset::label_counts() const {
  std::vector<double> counts(num_classes_, 0.0);
  for (std::int64_t l : labels_) counts[static_cast<std::size_t>(l)] += 1.0;
  return counts;
}

}  // namespace haccs::data
