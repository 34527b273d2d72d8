#include "src/clustering/distance_matrix.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/common/threadpool.hpp"
#include "src/obs/trace.hpp"

namespace haccs::clustering {

DistanceMatrix::DistanceMatrix(std::size_t n) : n_(n), data_(n * n, 0.0) {
  if (n == 0) throw std::invalid_argument("DistanceMatrix: empty");
}

DistanceMatrix DistanceMatrix::build(
    std::size_t n,
    const std::function<double(std::size_t, std::size_t)>& distance) {
  DistanceMatrix m(n);
  obs::Span span("distance_matrix", "clustering");
  auto fill_row = [&](std::size_t i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double d = distance(i, j);
      if (d < 0.0) {
        throw std::invalid_argument("DistanceMatrix: negative distance");
      }
      // Each (i, j) cell is written by exactly one row task; (j, i) mirrors
      // are written by row i only, so there are no concurrent writers.
      m.data_[i * n + j] = d;
      m.data_[j * n + i] = d;
    }
  };
  // Balanced pairing: row i owns n-i-1 columns, so task t takes the short
  // row t and the long row n-1-t together — every task does exactly n-1
  // column evaluations instead of the first worker getting ~2x the last's.
  parallel_for(0, (n + 1) / 2, [&](std::size_t t) {
    fill_row(t);
    const std::size_t mirror = n - 1 - t;
    if (mirror != t) fill_row(mirror);
  });
  return m;
}

double DistanceMatrix::kth_nearest_distance(std::size_t center, std::size_t k,
                                            std::vector<double>& scratch) const {
  if (center >= n_) throw std::out_of_range("kth_nearest_distance");
  if (k == 0 || k >= n_) {
    throw std::invalid_argument("kth_nearest_distance: k must be in [1, n)");
  }
  scratch.clear();
  scratch.reserve(n_ - 1);
  for (std::size_t j = 0; j < n_; ++j) {
    if (j != center) scratch.push_back(at(center, j));
  }
  std::nth_element(scratch.begin(),
                   scratch.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   scratch.end());
  return scratch[k - 1];
}

}  // namespace haccs::clustering
