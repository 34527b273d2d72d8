#include "src/nn/layer.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/common/error.hpp"
#include "src/tensor/vecops.hpp"

namespace haccs::nn {

void Layer::zero_grad() {
  for (Tensor* g : gradients()) g->fill(0.0f);
}

namespace {
/// He-uniform initialization: U(-limit, limit) with limit = sqrt(6 / fan_in).
void he_uniform(Tensor& t, std::size_t fan_in, Rng& rng) {
  const double limit = std::sqrt(6.0 / static_cast<double>(fan_in));
  for (float& v : t.data()) {
    v = static_cast<float>(rng.uniform(-limit, limit));
  }
}
}  // namespace

// ---------------------------------------------------------------- Dense ----

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_({out_features, in_features}),
      bias_({out_features}),
      grad_weight_({out_features, in_features}),
      grad_bias_({out_features}) {
  if (in_ == 0 || out_ == 0) {
    throw std::invalid_argument("Dense: zero feature count");
  }
  he_uniform(weight_, in_, rng);
}

void Dense::affine(const Tensor& input, Tensor& out) const {
  if (input.rank() != 2 || input.extent(1) != in_) {
    throw std::invalid_argument("Dense: expected (N, " + std::to_string(in_) +
                                "), got " + input.shape_string());
  }
  const std::size_t n = input.extent(0);
  out.resize({n, out_});
  ops::gemm_bt(input, weight_, out);
  const float* bias = bias_.raw();
  for (std::size_t i = 0; i < n; ++i) {
    float* row = out.raw() + i * out_;
    for (std::size_t j = 0; j < out_; ++j) row[j] += bias[j];
  }
}

Tensor Dense::forward(Tensor input) {
  Tensor out;
  affine(input, out);
  last_input_ = std::move(input);
  return out;
}

void Dense::infer(Tensor& x, Tensor& spare) const {
  affine(x, spare);
  std::swap(x, spare);
}

std::size_t Dense::min_invariant_rows() const {
  return ops::gemm_blocked_min_rows(out_, in_);
}

void Dense::backward_params(const Tensor& grad_output) {
  const std::size_t n = last_input_.extent(0);
  if (grad_output.rank() != 2 || grad_output.extent(0) != n ||
      grad_output.extent(1) != out_) {
    throw std::invalid_argument("Dense::backward: grad shape mismatch");
  }
  // dW += dY^T X ; db += column sums of dY.
  ops::gemm_at(grad_output, last_input_, grad_weight_,
               /*accumulate=*/!grad_weight_zero_);
  grad_weight_zero_ = false;
  float* grad_bias = grad_bias_.raw();
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = grad_output.raw() + i * out_;
    for (std::size_t j = 0; j < out_; ++j) grad_bias[j] += row[j];
  }
}

std::vector<Tensor*> Dense::gradients() {
  if (grad_weight_zero_) {
    grad_weight_.fill(0.0f);
    grad_weight_zero_ = false;
  }
  return {&grad_weight_, &grad_bias_};
}

void Dense::zero_grad() {
  grad_bias_.fill(0.0f);
  grad_weight_zero_ = true;
}

Tensor Dense::backward(const Tensor& grad_output) {
  backward_params(grad_output);
  // dX = dY W.
  Tensor grad_input({last_input_.extent(0), in_});
  ops::gemm(grad_output, weight_, grad_input);
  return grad_input;
}

// --------------------------------------------------------------- Conv2d ----

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t padding,
               Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weight_({out_channels, in_channels, kernel, kernel}),
      bias_({out_channels}),
      grad_weight_({out_channels, in_channels, kernel, kernel}),
      grad_bias_({out_channels}) {
  he_uniform(weight_, in_channels * kernel * kernel, rng);
}

ops::Conv2dShape Conv2d::shape_of(const Tensor& input) const {
  if (input.rank() != 4 || input.extent(1) != in_channels_) {
    throw std::invalid_argument("Conv2d: bad input " + input.shape_string());
  }
  return ops::Conv2dShape{input.extent(0), in_channels_,   input.extent(2),
                          input.extent(3), out_channels_, kernel_,
                          stride_,         padding_};
}

void Conv2d::convolve(const ops::Conv2dShape& shape, const Tensor& input,
                      Tensor& out) const {
  out.resize({shape.batch, out_channels_, shape.out_h(), shape.out_w()});
  ops::conv2d_forward(shape, input, weight_, bias_, out);
}

Tensor Conv2d::forward(Tensor input) {
  last_shape_ = shape_of(input);
  Tensor out;
  convolve(last_shape_, input, out);
  last_input_ = std::move(input);
  return out;
}

void Conv2d::infer(Tensor& x, Tensor& spare) const {
  convolve(shape_of(x), x, spare);
  std::swap(x, spare);
}

void Conv2d::backward_params(const Tensor& grad_output) {
  ops::conv2d_backward_params(last_shape_, last_input_, grad_output,
                              grad_weight_, grad_bias_);
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  backward_params(grad_output);
  Tensor grad_input({last_shape_.batch, in_channels_, last_shape_.in_h,
                     last_shape_.in_w});
  ops::conv2d_backward_input(last_shape_, grad_output, weight_, grad_input);
  return grad_input;
}

// ------------------------------------------------------------ MaxPool2d ----

MaxPool2d::MaxPool2d(std::size_t window) : window_(window) {
  if (window == 0) throw std::invalid_argument("MaxPool2d: zero window");
}

ops::Pool2dShape MaxPool2d::shape_of(const Tensor& input) const {
  if (input.rank() != 4) {
    throw std::invalid_argument("MaxPool2d: expected NCHW");
  }
  return ops::Pool2dShape{input.extent(0), input.extent(1), input.extent(2),
                          input.extent(3), window_};
}

Tensor MaxPool2d::forward(Tensor input) {
  last_shape_ = shape_of(input);
  Tensor out({last_shape_.batch, last_shape_.channels, last_shape_.out_h(),
              last_shape_.out_w()});
  ops::maxpool_forward(last_shape_, input, out, argmax_);
  return out;
}

void MaxPool2d::infer(Tensor& x, Tensor& spare) const {
  const ops::Pool2dShape shape = shape_of(x);
  spare.resize({shape.batch, shape.channels, shape.out_h(), shape.out_w()});
  ops::maxpool_forward_infer(shape, x, spare);
  std::swap(x, spare);
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  Tensor grad_input({last_shape_.batch, last_shape_.channels, last_shape_.in_h,
                     last_shape_.in_w});
  ops::maxpool_backward(last_shape_, grad_output, argmax_, grad_input);
  return grad_input;
}

// ----------------------------------------------------------------- ReLU ----

Tensor ReLU::forward(Tensor input) {
  last_input_ = input;
  vec::relu(input.data());
  return input;
}

void ReLU::infer(Tensor& x, Tensor& /*spare*/) const { vec::relu(x.data()); }

Tensor ReLU::backward(const Tensor& grad_output) {
  HACCS_CHECK_MSG(grad_output.same_shape(last_input_), "ReLU grad shape");
  Tensor grad_input = grad_output;
  vec::relu_mask(grad_input.data(), last_input_.data());
  return grad_input;
}

// -------------------------------------------------------------- Flatten ----

Tensor Flatten::forward(Tensor input) {
  last_shape_ = input.shape();
  Tensor spare;
  infer(input, spare);
  return input;
}

void Flatten::infer(Tensor& x, Tensor& /*spare*/) const {
  if (x.rank() < 2) {
    throw std::invalid_argument("Flatten: expected rank >= 2");
  }
  const std::size_t n = x.extent(0);
  x.reshape({n, x.size() / n});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  return grad_output.reshaped(last_shape_);
}

}  // namespace haccs::nn
