// OPTICS (Ankerst et al., SIGMOD'99) over a precomputed distance matrix.
//
// OPTICS produces a reachability ordering rather than a flat clustering;
// three extraction methods turn it into cluster labels:
//   * extract_dbscan(eps)   — the DBSCAN-equivalent cut at a fixed eps;
//   * extract_xi(xi)        — the paper's steep-area ξ method;
//   * extract_auto()        — parameter-free cut at the largest gap in the
//                             reachability profile (HACCS's default: the
//                             paper chose OPTICS for having one fewer
//                             hyperparameter than DBSCAN, and auto-gap keeps
//                             the flat extraction hyperparameter-free too).
// Labels follow the DBSCAN convention: ids from 0, noise = -1.
#pragma once

#include <limits>
#include <vector>

#include "src/clustering/distance_matrix.hpp"
#include "src/clustering/neighbor_index.hpp"

namespace haccs::clustering {

inline constexpr double kUndefined = std::numeric_limits<double>::infinity();

struct OpticsConfig {
  std::size_t min_pts = 2;
  /// Neighborhood cap; infinity means "consider all points" (fine for the
  /// client-count scales HACCS deals with).
  double max_eps = kUndefined;
};

struct OpticsResult {
  /// Visit order of all points.
  std::vector<std::size_t> ordering;
  /// Reachability distance per point (indexed by point id); kUndefined for
  /// points never reached within max_eps (and the first point of each
  /// connected component).
  std::vector<double> reachability;
  /// Core distance per point; kUndefined when the point is not a core point
  /// within max_eps.
  std::vector<double> core_distance;

  /// Reachability values in visit order — the "reachability plot".
  std::vector<double> reachability_plot() const;
};

/// OPTICS over any neighbor index. Eps-neighborhoods and core distances are
/// served by the index, so the same algorithm runs on the exact dense matrix
/// (DenseNeighborIndex — bit-identical to the pre-seam row scans) or on an
/// ANN-pruned SparseNeighborGraph whose cost scales with candidate degree.
OpticsResult optics(const NeighborIndex& index, const OpticsConfig& config);

/// Exact path: dense-matrix adapter over the seam.
OpticsResult optics(const DistanceMatrix& distances, const OpticsConfig& config);

/// DBSCAN-equivalent clustering at `eps` from an OPTICS result.
std::vector<int> extract_dbscan(const OpticsResult& result, double eps,
                                std::size_t min_pts);

/// ξ-extraction: clusters are ranges of the ordering bounded by ξ-steep
/// down/up areas (reachability drops/rises by a factor of at least 1 - ξ).
/// Returns the *leaf* clusters of the hierarchy (each point's innermost
/// cluster), noise = -1.
std::vector<int> extract_xi(const OpticsResult& result, double xi,
                            std::size_t min_cluster_size);

/// Parameter-free extraction. Candidate cut levels are the dominant gaps in
/// the sorted reachability profile (gaps that clearly exceed the typical
/// spacing and leave a substantial fraction of points on each side). Each
/// candidate clustering is scored by validity on the original distances —
/// mean within-cluster distance over mean cross-cluster distance — and the
/// best cut is accepted only when that ratio shows real structure
/// (within ≪ cross). Otherwise everything forms one cluster, which is the
/// correct degeneration for IID data (paper §V-D1).
std::vector<int> extract_auto(const OpticsResult& result,
                              const NeighborIndex& index,
                              std::size_t min_pts);

}  // namespace haccs::clustering
