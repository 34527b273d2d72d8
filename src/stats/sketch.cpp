#include "src/stats/sketch.hpp"

#include <algorithm>
#include <cmath>
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
