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

void Dataset::add(std::span<const float> features, std::int64_t label) {
  if (features.size() != sample_size_) {
    throw std::invalid_argument("Dataset::add: feature size mismatch");
  }
  const std::size_t row = add_rows({&label, 1});
  std::copy(features.begin(), features.end(), mutable_features(row).begin());
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

void Dataset::append(Dataset&& other) {
  if (other.sample_shape_ != sample_shape_ ||
      other.num_classes_ != num_classes_) {
    throw std::invalid_argument("Dataset::append: incompatible dataset");
  }
  features_.insert(features_.end(), other.features_.begin(),
                   other.features_.end());
  labels_.insert(labels_.end(), other.labels_.begin(), other.labels_.end());
  other.features_.clear();
  other.labels_.clear();
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
  Tensor batch(std::move(shape));
  float* out = batch.raw();
  for (std::size_t n = 0; n < indices.size(); ++n) {
    auto src = features(indices[n]);
    std::copy(src.begin(), src.end(), out + n * sample_size_);
  }
  return batch;
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
