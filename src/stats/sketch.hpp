// Sketched distribution summaries for scale (extends §IV-A's machinery).
//
// The exact summaries (summary.hpp) grow with the class count and feature
// resolution, and comparing all N² pairs of them caps the selector far below
// millions of clients. Two sketch primitives fix the constants:
//
//   * CountMinSketch — fixed-width count sketch over arbitrary index spaces
//     (LEFL-style low-entropy grouping sketches; "Efficient Data
//     Distribution Estimation for Accelerated Federated Learning" shows
//     sketched label/feature summaries preserve cluster structure). Point
//     estimates never underestimate and overestimate by at most
//     e/width x total mass with high probability.
//
//   * sqrt-embedding projection — the Hellinger distance is, exactly, the
//     Euclidean distance between sqrt-probability vectors divided by √2
//     (Eq. 3). Embedding clients as √p and (when the native dimension
//     exceeds the sketch budget) projecting with a signed-hash count-sketch
//     projection preserves pairwise L2 in expectation, giving a
//     bounded-error Hellinger estimate from O(dim) floats per client. When
//     the native dimension fits the budget the embedding is the identity
//     and the estimate is exact for P(y) summaries.
//
// All hashing is deterministic (SplitMix64 on (seed, index)) so sketches
// built on different machines — or on a client vs the server — agree bit
// for bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace haccs::stats {

/// Count-min sketch: depth rows of width counters; add() increments one
/// counter per row, estimate() takes the min. Deterministically seeded.
class CountMinSketch {
 public:
  CountMinSketch(std::size_t width, std::size_t depth,
                 std::uint64_t seed = 0x5eedc0de);

  void add(std::uint64_t index, double weight = 1.0);
  /// Never below the true count; above it by at most (e/width) * total()
  /// with probability 1 - exp(-depth) per query.
  double estimate(std::uint64_t index) const;
  double total() const { return total_; }
  std::size_t width() const { return width_; }
  std::size_t depth() const { return rows_.size() / width_; }

  /// Merges another sketch with identical (width, depth, seed) geometry.
  void merge(const CountMinSketch& other);

 private:
  std::size_t bucket(std::size_t row, std::uint64_t index) const;

  std::size_t width_;
  std::uint64_t seed_;
  std::vector<double> rows_;  ///< depth x width, row-major
  double total_ = 0.0;
};

/// Signed-hash (count-sketch / feature-hashing) projection of `v` into
/// `dim` buckets: out[h(i) % dim] += s(i) * v[i] with s(i) in {-1, +1}.
/// Preserves inner products in expectation, so L2 distances between
/// projections estimate L2 distances between inputs. When v.size() <= dim
/// the projection is the identity (zero-padded) and therefore exact.
std::vector<float> project_embedding(std::span<const double> v,
                                     std::size_t dim, std::uint64_t seed);

/// Adds one (virtual index, value) contribution into an existing embedding
/// using the same signed-hash scheme as project_embedding. Lets callers
/// project structured feature spaces — e.g. (label, bin) pairs packed into
/// one index — without materializing the flat vector first.
void project_add(std::span<float> out, std::uint64_t index, double value,
                 std::uint64_t seed);

/// The sqrt-probability embedding of a count vector: sqrt(v_i / sum v), i.e.
/// sqrt_probabilities (histogram.hpp) into a fresh vector. All-zero input
/// embeds to the zero vector (matching Histogram::normalized, where "no
/// data" is maximally distinguishable under Hellinger).
std::vector<double> sqrt_embedding(std::span<const double> counts);

/// Hellinger estimate from two sqrt-embeddings: ||a - b|| / sqrt(2), clamped
/// into [0, 1]. Exact when the embeddings are unprojected sqrt-probability
/// vectors; bounded-error after project_embedding.
double hellinger_from_embeddings(std::span<const float> a,
                                 std::span<const float> b);

}  // namespace haccs::stats
