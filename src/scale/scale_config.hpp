// Configuration for the million-client selection pipeline (DESIGN.md §5h).
//
// Kept header-only and dependency-free so core::HaccsConfig can embed it
// without pulling the scale machinery into every translation unit.
#pragma once

#include <cstddef>
#include <cstdint>

namespace haccs::scale {

struct ScaleConfig {
  /// Master runtime toggle. Off (the default) keeps the exact O(N²)
  /// summary → Hellinger → OPTICS path byte-identical to the pre-scale
  /// implementation; on routes clustering through sketches, ANN candidate
  /// pruning, sharding, and the cluster-of-clusters merge.
  bool enabled = false;

  /// Maximum clients clustered together in one shard. Distance work and
  /// memory are O(shard_size²) worst case per shard, never O(N²).
  std::size_t shard_size = 1024;

  /// Sketch embedding budget (floats per client). Native embeddings at or
  /// below this dimension are stored unprojected, making the sketch-space
  /// Hellinger estimate exact for P(y) summaries with ≤ sketch_dim classes.
  std::size_t sketch_dim = 32;

  /// Shards at or below this size skip ANN pruning and build the dense
  /// exact distance matrix (the pruning bookkeeping costs more than it
  /// saves on small inputs — and it makes tier-1-sized scale runs agree
  /// exactly with the legacy path, which the differential oracle pins).
  std::size_t exact_cutoff = 256;

  /// ANN candidate buckets over 64 points (scale.cpp) connect each point to
  /// its `bucket_window` successors only instead of contributing all pairs
  /// (bounds the candidate count when sketches collapse onto few keys).
  std::size_t bucket_window = 16;

  /// Incremental re-cluster: joins/leaves/updates accumulate dirtiness;
  /// once dirty operations exceed this fraction of the live population the
  /// affected shards are re-clustered and the merge is refreshed. Below the
  /// threshold, membership changes pay only a nearest-centroid assignment.
  double dirty_threshold = 0.05;

  /// A joining client further than this (sketch-space Hellinger) from every
  /// existing cluster centroid opens a fresh singleton cluster instead of
  /// being pulled into its nearest one.
  double assign_radius = 0.25;

  /// Seed for LSH hyperplanes and sketch projections.
  std::uint64_t seed = 0xACC5;
};

}  // namespace haccs::scale
