#include "src/tensor/tensor.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace haccs {

namespace {
std::size_t shape_product(std::span<const std::size_t> shape) {
  std::size_t total = 1;
  for (std::size_t e : shape) {
    if (e == 0) throw std::invalid_argument("Tensor: zero extent");
    total *= e;
  }
  return total;
}
}  // namespace

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_(std::move(shape)), data_(shape_product(shape_), 0.0f) {}

Tensor::Tensor(std::initializer_list<std::size_t> shape)
    : Tensor(std::vector<std::size_t>(shape)) {}

Tensor::Tensor(std::vector<std::size_t> shape, std::vector<float> values)
    : shape_(std::move(shape)), data_(std::move(values)) {
  if (data_.size() != shape_product(shape_)) {
    throw std::invalid_argument("Tensor: values size does not match shape " +
                                shape_string());
  }
}

std::size_t Tensor::extent(std::size_t dim) const {
  if (dim >= shape_.size()) {
    throw std::out_of_range("Tensor::extent: dim out of range");
  }
  return shape_[dim];
}

Tensor Tensor::reshaped(std::vector<std::size_t> new_shape) const {
  if (shape_product(new_shape) != data_.size()) {
    throw std::invalid_argument("Tensor::reshaped: size mismatch");
  }
  return Tensor(std::move(new_shape), data_);
}

void Tensor::reshape(std::initializer_list<std::size_t> new_shape) {
  const std::span<const std::size_t> shape(new_shape.begin(), new_shape.size());
  if (shape_product(shape) != data_.size()) {
    throw std::invalid_argument("Tensor::reshape: size mismatch");
  }
  shape_.assign(shape.begin(), shape.end());
}

void Tensor::resize(std::span<const std::size_t> new_shape) {
  const std::size_t size = shape_product(new_shape);
  shape_.assign(new_shape.begin(), new_shape.end());
  data_.resize(size);
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

std::string Tensor::shape_string() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << ", ";
    os << shape_[i];
  }
  os << ']';
  return os.str();
}

}  // namespace haccs
