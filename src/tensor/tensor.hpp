// Dense row-major float tensors.
//
// A deliberately small tensor type: owning, contiguous, row-major storage of
// float32 with a dynamic shape. It supports the operations the neural-network
// library needs (GEMM, convolution via tensor/ops.hpp, elementwise maps) and
// nothing more. Interfaces take std::span per Core Guidelines R.14.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace haccs {

class Tensor {
 public:
  /// Empty (rank-0, zero elements) tensor.
  Tensor() = default;

  /// Zero-initialized tensor of the given shape. Every extent must be > 0.
  explicit Tensor(std::vector<std::size_t> shape);
  Tensor(std::initializer_list<std::size_t> shape);

  /// Tensor with explicit contents; `values.size()` must equal the product
  /// of the extents.
  Tensor(std::vector<std::size_t> shape, std::vector<float> values);

  const std::vector<std::size_t>& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t size() const { return data_.size(); }
  std::size_t extent(std::size_t dim) const;

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }

  float* raw() { return data_.data(); }
  const float* raw() const { return data_.data(); }

  /// Flat element access.
  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// Reinterprets the flat data with a new shape of identical total size.
  Tensor reshaped(std::vector<std::size_t> new_shape) const;

  /// In-place reshaped(): same data, new shape of identical total size.
  void reshape(std::initializer_list<std::size_t> new_shape);

  /// Gives the tensor `new_shape`, reusing its storage when the capacity
  /// suffices (no allocation once a buffer has seen its largest shape).
  /// Element values are unspecified afterwards: callers overwrite them all.
  void resize(std::span<const std::size_t> new_shape);
  void resize(std::initializer_list<std::size_t> new_shape) {
    resize(std::span<const std::size_t>(new_shape.begin(), new_shape.size()));
  }

  void fill(float value);

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  /// "[2, 3, 4]"-style shape string for error messages.
  std::string shape_string() const;

 private:
  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

}  // namespace haccs
