// The HACCS client-selection strategy (paper §IV-D, Algorithm 1).
//
// At construction the selector runs the summary/clustering pipeline once
// ("computed at the start of training"). Each epoch it:
//   1. computes per-cluster average loss (ACL_i) and average latency from
//      the engine's runtime view,
//   2. forms sampling weights θ_i = ρ·τ_i + (1-ρ)·ACL_i / ΣACL_j  (Eq. 7)
//      with τ_i = 1 − Latency_i / Latency_max                     (Eq. 6),
//   3. draws k clusters by weighted simple random sampling *with*
//      replacement (Weighted-SRSWR),
//   4. takes the lowest-latency available device not yet chosen from each
//      sampled cluster (or latency-weighted random, §V-E's alternative).
//
// Noise points from the clustering are treated as singleton clusters, so a
// client with a unique distribution still represents itself. Devices that
// dropped out are skipped within their cluster — the paper's robustness
// story: the next-fastest device with the same distribution stands in.
#pragma once

#include <memory>

#include "src/core/pipeline.hpp"
#include "src/fl/selector.hpp"
#include "src/scale/incremental.hpp"

namespace haccs::core {

class HaccsSelector final : public fl::ClientSelector {
 public:
  /// Runs the clustering pipeline on `dataset` immediately.
  HaccsSelector(const data::FederatedDataset& dataset, HaccsConfig config);

  /// Uses precomputed cluster labels (for tests / ablations).
  HaccsSelector(std::vector<int> cluster_labels, HaccsConfig config);

  std::vector<std::size_t> select(std::size_t k,
                                  const std::vector<fl::ClientRuntimeInfo>& clients,
                                  std::size_t epoch, Rng& rng) override;
  std::string name() const override;

  /// Failure-aware reaction (robustness extension): the failed device's
  /// intra-cluster priority is decayed and its cluster is queued for a
  /// guaranteed replacement draw on the next select() — selection stays
  /// cluster-faithful under churn (the same distribution keeps its seat).
  void report_failure(std::size_t client_id, std::size_t epoch,
                      fl::FailureKind kind) override;

  /// Accumulated reliability penalty of a client (1 = no penalty) —
  /// exposed for tests.
  double failure_penalty_of(std::size_t client_id) const;

  /// Crash-resume state: failure penalties and the pending replacement
  /// queue. Clusters themselves are rebuilt deterministically from the
  /// dataset, so they are not part of the blob.
  std::vector<std::uint8_t> save_state() const override;
  void load_state(std::span<const std::uint8_t> state) override;

  /// Re-runs clustering (e.g. after clients join/leave or summaries change,
  /// §IV-C's real-time adaptation). The client summaries are always
  /// recomputed. On the exact path, summaries bitwise equal to the last
  /// pipeline run's reuse its labels (no distance matrix, no OPTICS); any
  /// changed client or a population change reruns the full pipeline. With
  /// config.scale.enabled this is incremental: unchanged clients keep their
  /// cached shard clustering, and a full recompute happens only when churn
  /// crosses the dirtiness threshold (scale::IncrementalClusterer).
  void recluster(const data::FederatedDataset& dataset);

  /// The incremental clusterer backing the scale path (null when
  /// config.scale.enabled is false or the selector was label-constructed).
  /// Exposed for tests and the --summary-json report.
  const scale::IncrementalClusterer* incremental() const {
    return incremental_.get();
  }

  /// Replaces the cluster assignment wholesale (noise remapped to
  /// singletons). Used by dynamic schedulers that derive clusters from
  /// signals other than data summaries (e.g. gradient directions).
  void set_clusters(std::vector<int> cluster_labels);

  /// Cluster label per client; -1 never appears here (noise points are
  /// remapped to singleton clusters).
  const std::vector<int>& cluster_of() const { return cluster_of_; }
  std::size_t num_clusters() const { return clusters_.size(); }
  const std::vector<std::vector<std::size_t>>& clusters() const {
    return clusters_;
  }

  /// Eq. 7 weights for the given runtime view (exposed for tests).
  std::vector<double> cluster_weights(
      const std::vector<fl::ClientRuntimeInfo>& clients) const;

 private:
  void build_clusters(std::vector<int> raw_labels);
  /// Exact path: recompute the summaries and re-cluster, reusing the cached
  /// labels when no summary changed. Returns the number of changed clients
  /// (joins and leaves included).
  std::size_t recluster_exact(const data::FederatedDataset& dataset);
  /// Scale path: sync the incremental clusterer with the dataset (joins,
  /// leaves, changed summaries) and refresh clusters_ from its labels.
  /// Returns the number of changed clients.
  std::size_t recluster_scaled(const data::FederatedDataset& dataset,
                               bool initial);

  HaccsConfig config_;
  /// Set only by the dataset-constructing constructor; enables
  /// config_.recluster_every. The dataset must outlive the selector.
  const data::FederatedDataset* dataset_ = nullptr;
  std::vector<int> cluster_of_;
  std::vector<std::vector<std::size_t>> clusters_;
  /// Reliability penalty per client (>= 1; decays toward 1 each epoch).
  std::vector<double> penalty_;
  /// Clusters owed a replacement draw after a member failed mid-round.
  std::vector<std::size_t> replacement_queue_;

  /// Exact path cache: the summaries and raw (pre-remap) labels of the last
  /// full pipeline run. Derived from the dataset, so never checkpointed.
  std::vector<ClientSummary> exact_summaries_;
  std::vector<int> exact_labels_;

  /// Scale path state. Summaries live behind a shared_ptr because the
  /// clusterer's exact-distance callback captures them; the selector can be
  /// moved without dangling the callback.
  std::shared_ptr<std::vector<ClientSummary>> scale_summaries_;
  std::unique_ptr<scale::IncrementalClusterer> incremental_;
  /// Dataset index -> clusterer client id.
  std::vector<std::size_t> scale_ids_;
};

}  // namespace haccs::core
