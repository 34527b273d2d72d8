// Configuration for the HACCS scheduler (paper §IV).
#pragma once

#include <cstdint>

#include "src/clustering/dbscan.hpp"
#include "src/clustering/optics.hpp"
#include "src/scale/scale_config.hpp"
#include "src/stats/distance.hpp"
#include "src/stats/privacy.hpp"
#include "src/stats/summary.hpp"

namespace haccs::core {

/// How flat clusters are extracted from the OPTICS ordering.
enum class Extraction {
  Auto,    ///< largest-gap cut (default; hyperparameter-free)
  Xi,      ///< the ξ steep-area method, ξ = 0.05
  Dbscan,  ///< fixed-eps cut
};

/// Which density-based algorithm clusters the summary distances.
enum class ClusterAlgorithm {
  Optics,  ///< the paper's choice (§IV-C)
  Dbscan,  ///< ablation alternative
};

/// How a device is picked inside a sampled cluster.
enum class InClusterPolicy {
  MinLatency,      ///< the paper's Algorithm 1: fastest available device
  WeightedRandom,  ///< §V-E's suggested mitigation: latency-weighted sampling
};

struct HaccsConfig {
  /// Which distribution summary clients report (P(y), P(X|y), or Q(X|y)).
  stats::SummaryKind summary = stats::SummaryKind::Response;
  stats::ConditionalSummaryConfig conditional;
  stats::QuantileSummaryConfig quantile;

  /// Distance between P(y) summaries. The paper uses Hellinger (Eq. 3);
  /// alternatives are provided for the ablation in bench/ablation_distance.
  /// P(X|y) summaries always use the mass-weighted Hellinger.
  stats::DistanceKind response_distance = stats::DistanceKind::Hellinger;

  /// Differential privacy on the reported summaries; PrivacyConfig::none()
  /// disables noise.
  stats::PrivacyConfig privacy = stats::PrivacyConfig::none();
  /// Seed for the per-client DP noise streams.
  std::uint64_t privacy_seed = 7;

  /// Eq. 7 trade-off between latency (rho -> 1) and loss (rho -> 0).
  double rho = 0.5;

  ClusterAlgorithm algorithm = ClusterAlgorithm::Optics;
  clustering::OpticsConfig optics{.min_pts = 2,
                                  .max_eps = clustering::kUndefined};
  Extraction extraction = Extraction::Auto;
  clustering::DbscanConfig dbscan{.eps = 0.3, .min_pts = 2};

  InClusterPolicy in_cluster = InClusterPolicy::MinLatency;

  /// Million-client scaling (DESIGN.md §5h). Disabled by default: the exact
  /// O(N²) pipeline runs unchanged. When enabled, clustering goes through
  /// sketched summaries, ANN candidate pruning, sharding, and the
  /// cluster-of-clusters merge (src/scale), with incremental re-clustering
  /// under churn in HaccsSelector.
  scale::ScaleConfig scale;

  /// Re-run the summary/clustering pipeline every N epochs (0 = cluster once
  /// at the start of training, the paper's Algorithm 1 default). Nonzero
  /// values implement §IV-C's real-time adaptation: clients resubmitting
  /// summaries as their data drifts get fresh cluster assignments while
  /// training is in progress.
  std::size_t recluster_every = 0;

  /// Loss assumed for clusters never yet trained.
  double initial_loss = 2.302585;

  /// Reliability penalty multiplier applied to a device's intra-cluster
  /// priority when it fails mid-round (crash/timeout/corruption): its
  /// effective latency is scaled by the accumulated penalty, so the
  /// next-fastest same-cluster device stands in on subsequent rounds.
  /// Accumulated penalties decay back toward 1 by a factor 0.95 per epoch,
  /// so a device that behaves again regains its priority.
  double failure_penalty = 2.0;
  /// Re-sample a same-cluster stand-in on the round after a member fails
  /// (keeps every distribution represented under churn). Set false — with
  /// failure_penalty = 1 — for a fault-unaware HACCS baseline in ablations.
  bool failure_replacement = true;
};

}  // namespace haccs::core
