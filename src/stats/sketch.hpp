// Sketched distribution summaries for scale (extends §IV-A's machinery).
//
// The exact summaries (summary.hpp) grow with the class count and feature
// resolution, and comparing all N² pairs of them caps the selector far below
// millions of clients. The sqrt-embedding projection fixes the constants:
// the Hellinger distance is, exactly, the Euclidean distance between
// sqrt-probability vectors divided by √2 (Eq. 3). Embedding clients as √p
// and (when the native dimension exceeds the sketch budget) projecting with
// a signed-hash count-sketch projection preserves pairwise L2 in
// expectation, giving a bounded-error Hellinger estimate from O(dim) floats
// per client ("Efficient Data Distribution Estimation for Accelerated
// Federated Learning" shows sketched label/feature summaries preserve
// cluster structure). When the native dimension fits the budget the
// embedding is the identity and the estimate is exact for P(y) summaries.
//
// All hashing is deterministic (SplitMix64 on (seed, index)) so sketches
// built on different machines — or on a client vs the server — agree bit
// for bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace haccs::stats {

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
/// sqrt_probabilities (histogram.hpp) into a fresh vector, so all-zero input
/// embeds to the zero vector.
std::vector<double> sqrt_embedding(std::span<const double> counts);

/// Hellinger estimate from two sqrt-embeddings: ||a - b|| / sqrt(2), clamped
/// into [0, 1]. Exact when the embeddings are unprojected sqrt-probability
/// vectors; bounded-error after project_embedding.
double hellinger_from_embeddings(std::span<const float> a,
                                 std::span<const float> b);

}  // namespace haccs::stats
