// Label-distribution clustered selection (FedLECC-style: cluster clients by
// label-distribution distance once, then spread each round's picks across
// clusters; see PAPERS.md), re-implemented from the published idea.
//
// Unlike HACCS's OPTICS + Weighted-SRSWR over Eq. 7 weights, this baseline
// clusters with plain DBSCAN over the Hellinger matrix and draws clusters
// proportionally to (available mass x mean observed loss), then exploits the
// highest-loss member within the drawn cluster. Noise points become
// singleton clusters so every client stays reachable.
#pragma once

#include <vector>

#include "src/select/feedback_selector.hpp"

namespace haccs::select {

struct FedLeccConfig {
  /// DBSCAN cut over the Hellinger distance matrix.
  double eps = 0.35;
  std::size_t min_pts = 2;
  /// Loss assumed for never-trained clients.
  double initial_loss = 2.302585;
};

class FedLeccSelector final : public FeedbackSelector {
 public:
  /// `label_counts[i]` is client i's per-class label count (or distribution;
  /// normalized internally). Clustering happens once, at construction.
  FedLeccSelector(std::vector<std::vector<double>> label_counts,
                  FedLeccConfig config);

  std::vector<std::size_t> select(
      std::size_t k, const std::vector<fl::ClientRuntimeInfo>& clients,
      std::size_t epoch, Rng& rng) override;
  std::string name() const override { return "FedLECC"; }

  std::size_t num_clusters() const { return clusters_.size(); }
  int cluster_of(std::size_t client_id) const { return cluster_of_[client_id]; }

 private:
  std::vector<int> cluster_of_;                    // structural
  std::vector<std::vector<std::size_t>> clusters_; // structural
};

}  // namespace haccs::select
