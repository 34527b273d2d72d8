// Softmax cross-entropy loss with fused gradient.
//
// Computing softmax and cross-entropy together is both faster and numerically
// safer (log-sum-exp with max subtraction) than separate layers, and the
// combined gradient is simply (softmax - onehot) / N.
#pragma once

#include <cstdint>
#include <span>

#include "src/tensor/tensor.hpp"

namespace haccs::nn {

struct LossResult {
  double loss = 0.0;        ///< mean cross-entropy over the batch
  Tensor grad_logits;       ///< d(loss)/d(logits), shape (N, classes)
  std::size_t correct = 0;  ///< argmax matches label
};

/// One row of softmax cross-entropy: the arithmetic every batch loss and
/// every evaluator shares.
struct RowLoss {
  double loss = 0.0;       ///< -log softmax(row)[label]
  bool correct = false;    ///< the row's first maximum is at `label`
  float max = 0.0f;        ///< max(row)
  double exp_total = 0.0;  ///< sum_j exp(row[j] - max), the normalizer
};

/// Throws std::invalid_argument unless label is in [0, row.size()).
RowLoss softmax_cross_entropy_row(std::span<const float> row,
                                  std::int64_t label);

/// logits: (N, classes); labels[i] in [0, classes). Throws on shape or label
/// range violations.
LossResult softmax_cross_entropy(const Tensor& logits,
                                 std::span<const std::int64_t> labels);

}  // namespace haccs::nn
