// Sequential model container, flat parameter (de)serialization for federated
// averaging, and factories for the paper's model architectures.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "src/common/rng.hpp"
#include "src/nn/layer.hpp"

namespace haccs::nn {

/// A stack of layers applied in order. Owns its layers.
class Sequential {
 public:
  Sequential() = default;

  /// Movable; copies are explicit, through clone().
  Sequential(const Sequential&) = delete;
  Sequential& operator=(const Sequential&) = delete;
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  void add(std::unique_ptr<Layer> layer);
  /// Appends every layer of `tail`, in order.
  void add(Sequential tail);

  /// A deep copy of every layer (Layer::clone). Const, so pool threads can
  /// each take a per-job copy of one shared prototype, which saves the
  /// job a seeded initialisation that set_parameters would overwrite.
  Sequential clone() const;

  /// Training forward pass (Layer::forward); move the batch in to spare
  /// a copy of it.
  Tensor forward(Tensor input);
  /// Backpropagates `grad_output` (d loss / d logits of the last forward)
  /// and accumulates every parameter gradient. Nothing reads the gradient
  /// of the network input, so it is not computed: the pass stops at the
  /// first layer with parameters, which gets Layer::backward_params, and
  /// the stateless layers before it are skipped.
  void backward(const Tensor& grad_output);

  /// Inference-only forward pass: no layer state is touched, so a shared
  /// model can be evaluated from multiple threads concurrently. In place, as
  /// Layer::infer: `x` holds the batch and, on return, the logits; `spare`
  /// is the second buffer the layers ping-pong with. Both are the caller's,
  /// and reused across batches they stop allocating once they reach the
  /// largest shape.
  void infer(Tensor& x, Tensor& spare) const;

  /// The largest Layer::min_invariant_rows of any layer: batches of at
  /// least this many rows give every row the same logits.
  std::size_t min_invariant_rows() const;

  void zero_grad();

  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }

  /// Total number of scalar parameters.
  std::size_t parameter_count() const;

  /// Copies all parameters into one flat vector (layer order, tensor order).
  std::vector<float> get_parameters() const;
  /// The same copy into `flat`, reusing its storage.
  void get_parameters(std::vector<float>& flat) const;

  /// Restores parameters from a flat vector; size must match exactly.
  void set_parameters(std::span<const float> flat);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  /// Index of the first layer with parameters; layers_.size() while none.
  std::size_t first_with_params_ = 0;
};

/// Multi-layer perceptron: input_dim -> hidden... -> classes, ReLU between.
Sequential make_mlp(std::size_t input_dim,
                    const std::vector<std::size_t>& hidden,
                    std::size_t classes, Rng& rng);

/// LeNet-style CNN per the paper's evaluation (§V-A): two 5x5 conv + pool
/// stages followed by two dense layers. Works for any (channels, h, w) whose
/// spatial extent survives two 2x2 pools after 5x5 convs with padding 2.
Sequential make_lenet(std::size_t channels, std::size_t h, std::size_t w,
                      std::size_t classes, Rng& rng);

/// A small CNN (one conv/pool stage) for fast experiment sweeps on one core.
Sequential make_cnn_mini(std::size_t channels, std::size_t h, std::size_t w,
                         std::size_t classes, Rng& rng);

}  // namespace haccs::nn
