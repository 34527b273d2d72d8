#include "src/stats/sketch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/common/rng.hpp"
#include "src/stats/histogram.hpp"

namespace haccs::stats {

namespace {

/// One SplitMix64 step keyed on (seed, index): cheap, stateless, and
/// identical across platforms (the same mixer Rng seeds with).
std::uint64_t mix(std::uint64_t seed, std::uint64_t index) {
  return SplitMix64(seed ^ (index * 0x9e3779b97f4a7c15ULL)).next();
}

}  // namespace

CountMinSketch::CountMinSketch(std::size_t width, std::size_t depth,
                               std::uint64_t seed)
    : width_(width), seed_(seed), rows_(width * depth, 0.0) {
  if (width == 0 || depth == 0) {
    throw std::invalid_argument("CountMinSketch: zero geometry");
  }
}

std::size_t CountMinSketch::bucket(std::size_t row, std::uint64_t index) const {
  return static_cast<std::size_t>(mix(seed_ + row, index) % width_);
}

void CountMinSketch::add(std::uint64_t index, double weight) {
  if (weight < 0.0) {
    throw std::invalid_argument("CountMinSketch: negative weight");
  }
  const std::size_t depth = rows_.size() / width_;
  for (std::size_t r = 0; r < depth; ++r) {
    rows_[r * width_ + bucket(r, index)] += weight;
  }
  total_ += weight;
}

double CountMinSketch::estimate(std::uint64_t index) const {
  const std::size_t depth = rows_.size() / width_;
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < depth; ++r) {
    best = std::min(best, rows_[r * width_ + bucket(r, index)]);
  }
  return best;
}

void CountMinSketch::merge(const CountMinSketch& other) {
  if (other.width_ != width_ || other.rows_.size() != rows_.size() ||
      other.seed_ != seed_) {
    throw std::invalid_argument("CountMinSketch: geometry mismatch");
  }
  for (std::size_t i = 0; i < rows_.size(); ++i) rows_[i] += other.rows_[i];
  total_ += other.total_;
}

std::vector<float> project_embedding(std::span<const double> v,
                                     std::size_t dim, std::uint64_t seed) {
  if (dim == 0) throw std::invalid_argument("project_embedding: dim == 0");
  std::vector<float> out(dim, 0.0f);
  if (v.size() <= dim) {
    // Identity path: no collisions, no sign flips — the estimate downstream
    // is exact (this is the common case for P(y) summaries, where the
    // native dimension is the class count).
    for (std::size_t i = 0; i < v.size(); ++i) {
      out[i] = static_cast<float>(v[i]);
    }
    return out;
  }
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] == 0.0) continue;
    const std::uint64_t h = mix(seed, i);
    const std::size_t b = static_cast<std::size_t>((h >> 1) % dim);
    const double s = (h & 1u) != 0 ? 1.0 : -1.0;
    out[b] += static_cast<float>(s * v[i]);
  }
  return out;
}

void project_add(std::span<float> out, std::uint64_t index, double value,
                 std::uint64_t seed) {
  if (out.empty()) throw std::invalid_argument("project_add: empty output");
  if (value == 0.0) return;
  const std::uint64_t h = mix(seed, index);
  const std::size_t b = static_cast<std::size_t>((h >> 1) % out.size());
  const double s = (h & 1u) != 0 ? 1.0 : -1.0;
  out[b] += static_cast<float>(s * value);
}

std::vector<double> sqrt_embedding(std::span<const double> counts) {
  std::vector<double> out(counts.size());
  sqrt_probabilities(counts, out);
  return out;
}

double hellinger_from_embeddings(std::span<const float> a,
                                 std::span<const float> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("hellinger_from_embeddings: arity mismatch");
  }
  double sq = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    sq += d * d;
  }
  return std::clamp(std::sqrt(sq / 2.0), 0.0, 1.0);
}

}  // namespace haccs::stats
