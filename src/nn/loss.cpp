#include "src/nn/loss.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace haccs::nn {

namespace {

/// The softmax normalizer of one row: its first maximum and Σ exp(x - max),
/// each exp rounded to float and summed in double.
struct RowStats {
  float max;
  std::size_t argmax;
  double exp_total;
};

RowStats row_stats(std::span<const float> row) {
  const auto top = std::max_element(row.begin(), row.end());
  RowStats stats{*top, static_cast<std::size_t>(top - row.begin()), 0.0};
  for (float v : row) stats.exp_total += std::exp(v - stats.max);
  return stats;
}

}  // namespace

RowLoss softmax_cross_entropy_row(std::span<const float> row,
                                  std::int64_t label) {
  if (label < 0 || static_cast<std::size_t>(label) >= row.size()) {
    throw std::invalid_argument("softmax_cross_entropy: label out of range");
  }
  const RowStats stats = row_stats(row);
  const double log_total = std::log(stats.exp_total);
  return RowLoss{-(row[static_cast<std::size_t>(label)] - stats.max -
                   log_total),
                 stats.argmax == static_cast<std::size_t>(label), stats.max,
                 stats.exp_total};
}

LossResult softmax_cross_entropy(const Tensor& logits,
                                 std::span<const std::int64_t> labels) {
  if (logits.rank() != 2) {
    throw std::invalid_argument("softmax_cross_entropy: expected (N, classes)");
  }
  const std::size_t n = logits.extent(0), c = logits.extent(1);
  if (labels.size() != n) {
    throw std::invalid_argument("softmax_cross_entropy: label count mismatch");
  }
  LossResult result;
  result.grad_logits = Tensor({n, c});
  double loss_total = 0.0;
  const float inv_n = 1.0f / static_cast<float>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = logits.raw() + i * c;
    const RowLoss r = softmax_cross_entropy_row({row, c}, labels[i]);
    loss_total += r.loss;
    if (r.correct) ++result.correct;
    float* grad = result.grad_logits.raw() + i * c;
    const auto label = static_cast<std::size_t>(labels[i]);
    for (std::size_t j = 0; j < c; ++j) {
      const float p = static_cast<float>(std::exp(row[j] - r.max) / r.exp_total);
      grad[j] = (p - (j == label ? 1.0f : 0.0f)) * inv_n;
    }
  }
  result.loss = loss_total / static_cast<double>(n);
  return result;
}

}  // namespace haccs::nn
