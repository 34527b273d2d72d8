// Neural-network layers with explicit forward/backward passes.
//
// Each layer owns its parameters and gradient accumulators. The training
// contract, per batch:
// - forward(input) takes the batch by value: a caller that moves it in
//   costs no copy, and the layer keeps what its backward needs (Dense and
//   Conv2d keep the input itself, ReLU a copy, Flatten its shape).
// - backward(grad_output) then accumulates the parameter gradients (so
//   several micro-batches can be accumulated before an optimizer step) and
//   returns the gradient w.r.t. the layer's input.
// - backward_params(grad_output) accumulates the same parameter gradients,
//   bit for bit, and returns nothing. Sequential::backward calls it on the
//   network's first layer with parameters, whose input gradient nobody
//   reads; the layers before that one are skipped.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/tensor/ops.hpp"
#include "src/tensor/tensor.hpp"

namespace haccs::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  virtual Tensor forward(Tensor input) = 0;
  virtual Tensor backward(const Tensor& grad_output) = 0;
  /// backward() without the input gradient; a no-op for stateless layers.
  virtual void backward_params(const Tensor& /*grad_output*/) {}

  /// A deep copy: parameters, gradient accumulators and training caches.
  /// Const, so one prototype can be copied from several threads at once.
  virtual std::unique_ptr<Layer> clone() const = 0;

  /// Inference-only forward of one batch, in place: `x` holds the input
  /// and, on return, the output. Elementwise and reshaping layers work on
  /// `x` itself; the others write into `spare` and swap it with `x`, so two
  /// caller-owned buffers ping-pong through a model and keep their storage
  /// once it fits. Caches nothing and does not mutate the layer, so a shared
  /// model can be evaluated from several threads at once.
  virtual void infer(Tensor& x, Tensor& spare) const = 0;

  /// Inference gives a row the same bits in every batch of at least this
  /// many rows: rows never mix, but a GEMM under the small-product cutoff
  /// rounds differently (ops::gemm_blocked_min_rows).
  virtual std::size_t min_invariant_rows() const { return 1; }

  /// Parameter / gradient tensors (paired by index); empty for stateless
  /// layers. Non-owning pointers — the layer retains ownership.
  virtual std::vector<Tensor*> parameters() { return {}; }
  virtual std::vector<Tensor*> gradients() { return {}; }

  /// Sets every parameter gradient to zero, as gradients() and the next
  /// backward see them. A layer may defer the fill until one of them runs.
  virtual void zero_grad();

  virtual std::string name() const = 0;
};

/// Fully-connected layer: y = x W^T + b, x: (N, in), W: (out, in), b: (out).
class Dense : public Layer {
 public:
  /// He-uniform initialization scaled for the fan-in, seeded from `rng`.
  Dense(std::size_t in_features, std::size_t out_features, Rng& rng);

  Tensor forward(Tensor input) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Dense>(*this);
  }
  void infer(Tensor& x, Tensor& spare) const override;
  std::size_t min_invariant_rows() const override;
  std::vector<Tensor*> parameters() override { return {&weight_, &bias_}; }
  /// Zero-fills the weight gradient first if zero_grad deferred the fill.
  std::vector<Tensor*> gradients() override;
  /// Zeroes the bias gradient and defers the weight gradient's fill: the
  /// next backward_params overwrites it with dY^T X (gemm_at without
  /// accumulate, bit for bit the sum into zeros), so a training step never
  /// writes the weight gradient twice.
  void zero_grad() override;
  std::string name() const override { return "Dense"; }

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

 private:
  /// out = input W^T + b, the one body of forward() and infer().
  void affine(const Tensor& input, Tensor& out) const;

  std::size_t in_, out_;
  Tensor weight_, bias_, grad_weight_, grad_bias_;
  Tensor last_input_;
  /// Set by zero_grad: grad_weight_'s contents are stale and stand for 0.
  bool grad_weight_zero_ = false;
};

/// 2-D convolution over NCHW tensors with square kernels.
class Conv2d : public Layer {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t stride, std::size_t padding, Rng& rng);

  Tensor forward(Tensor input) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Conv2d>(*this);
  }
  void infer(Tensor& x, Tensor& spare) const override;
  std::vector<Tensor*> parameters() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> gradients() override { return {&grad_weight_, &grad_bias_}; }
  std::string name() const override { return "Conv2d"; }

 private:
  ops::Conv2dShape shape_of(const Tensor& input) const;
  /// The one convolution body of forward() and infer().
  void convolve(const ops::Conv2dShape& shape, const Tensor& input,
                Tensor& out) const;

  std::size_t in_channels_, out_channels_, kernel_, stride_, padding_;
  Tensor weight_, bias_, grad_weight_, grad_bias_;
  Tensor last_input_;
  ops::Conv2dShape last_shape_{};
};

/// Non-overlapping max pooling over NCHW tensors.
class MaxPool2d : public Layer {
 public:
  explicit MaxPool2d(std::size_t window);

  Tensor forward(Tensor input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<MaxPool2d>(*this);
  }
  void infer(Tensor& x, Tensor& spare) const override;
  std::string name() const override { return "MaxPool2d"; }

 private:
  ops::Pool2dShape shape_of(const Tensor& input) const;

  std::size_t window_;
  ops::Pool2dShape last_shape_{};
  std::vector<std::size_t> argmax_;
};

/// Elementwise rectified linear unit.
class ReLU : public Layer {
 public:
  Tensor forward(Tensor input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ReLU>(*this);
  }
  void infer(Tensor& x, Tensor& spare) const override;
  std::string name() const override { return "ReLU"; }

 private:
  Tensor last_input_;
};

/// Collapses (N, C, H, W) -> (N, C*H*W); backward restores the shape.
class Flatten : public Layer {
 public:
  Tensor forward(Tensor input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Flatten>(*this);
  }
  void infer(Tensor& x, Tensor& spare) const override;
  std::string name() const override { return "Flatten"; }

 private:
  std::vector<std::size_t> last_shape_;
};

}  // namespace haccs::nn
