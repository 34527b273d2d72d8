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
#include <optional>

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

  /// Clusters the clients' reported summaries, indexed by client (serving
  /// mode's wire-borne view). Without the dataset there is no drift
  /// re-clustering, but recluster_live works on these summaries. (A named
  /// constructor: `HaccsSelector({0}, config)` must stay the label one.)
  static HaccsSelector from_summaries(std::vector<ClientSummary> summaries,
                                      HaccsConfig config);

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

  /// Re-runs clustering after the clients' data drifted or the dataset
  /// grew or shrank (§IV-C's real-time adaptation). The client summaries
  /// are always recomputed. On the exact path, summaries bitwise equal to
  /// the cached ones reuse the cached labels (no distance matrix, no
  /// OPTICS); any changed client reruns the pipeline on the live clients.
  /// With config.scale.enabled this is incremental: unchanged clients keep
  /// their cached shard clustering, and a full recompute happens only when
  /// churn crosses the dirtiness threshold (scale::IncrementalClusterer).
  void recluster(const data::FederatedDataset& dataset);

  /// Re-clusters for a change in which clients are reachable (serving
  /// mode's liveness edges): `live[c]` says whether client c is. Departed
  /// clients become singleton clusters, so scheduling weight goes to the
  /// distributions that can actually train; a returning client is
  /// clustered again from its cached summary. Same diff and paths as
  /// recluster(). Returns false, doing nothing, when the mask equals the
  /// current one; otherwise bumps `recluster_live_total`. Throws
  /// std::invalid_argument unless the mask covers the summarized
  /// population (a label-constructed selector has none).
  bool recluster_live(std::vector<bool> live);

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
  /// The population the clusters describe, indexed by client. The scale
  /// path's exact-distance callback reads it by clusterer id through
  /// `client_of_id` and holds it by shared_ptr, so moving the selector
  /// cannot dangle the callback.
  struct Population {
    std::vector<ClientSummary> summaries;
    std::vector<bool> live;
    std::vector<std::size_t> client_of_id;  ///< scale path: id -> client
  };

  static HaccsConfig validated(HaccsConfig config);
  void build_clusters(std::vector<int> raw_labels);
  /// The one diff behind recluster() and recluster_live(): `fresh`
  /// summaries (nullopt = unchanged) and the `live` mask against the
  /// cached population. The exact path reruns the pipeline on the live
  /// clients iff any client changed, and otherwise reuses the cached
  /// labels; the scale path feeds each change to the incremental
  /// clusterer (`initial` rebuilds it from scratch). Returns the number of
  /// changed clients, joins, leaves and liveness flips included.
  std::size_t sync(std::optional<std::vector<ClientSummary>> fresh,
                   std::vector<bool> live, bool initial);

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

  /// Derived from the summaries, so never checkpointed: the population,
  /// and the raw (pre-remap) labels last clustered from it.
  std::shared_ptr<Population> population_ = std::make_shared<Population>();
  std::vector<int> labels_;
  /// Scale path: the clusterer, and client -> clusterer id (valid while
  /// the client is live).
  std::unique_ptr<scale::IncrementalClusterer> incremental_;
  std::vector<std::size_t> id_of_client_;
};

}  // namespace haccs::core
