// Symmetric pairwise-distance matrix.
//
// The HACCS server computes all pairwise summary distances once at the start
// of training (Algorithm 1, "computed at the start of training"); both
// density-based clustering algorithms then operate purely on this matrix.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace haccs::clustering {

class DistanceMatrix {
 public:
  /// Builds the matrix by evaluating `distance(i, j)` for every i < j
  /// (diagonal fixed at 0, symmetry enforced). Evaluation is parallelized
  /// with balanced pairing: task t computes rows t and n-1-t, so every task
  /// does exactly n-1 column evaluations (a plain per-row split gives the
  /// first worker ~2x the last's load, since row i only owns n-i-1 columns).
  static DistanceMatrix build(
      std::size_t n,
      const std::function<double(std::size_t, std::size_t)>& distance);

  std::size_t size() const { return n_; }

  double at(std::size_t i, std::size_t j) const { return data_[i * n_ + j]; }

  /// Distance to the k-th nearest other point (k >= 1) — the core-distance
  /// primitive. `scratch` holds the row copy, so OPTICS, which computes one
  /// core distance per point, allocates it once rather than per call.
  double kth_nearest_distance(std::size_t center, std::size_t k,
                              std::vector<double>& scratch) const;

 private:
  /// Zero-initialized n x n matrix.
  explicit DistanceMatrix(std::size_t n);

  std::size_t n_;
  std::vector<double> data_;
};

}  // namespace haccs::clustering
