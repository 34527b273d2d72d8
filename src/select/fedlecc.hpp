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

#include "src/fl/selector.hpp"

namespace haccs::select {

struct FedLeccConfig {
  /// DBSCAN cut over the Hellinger distance matrix.
  double eps = 0.35;
  std::size_t min_pts = 2;
  /// Loss assumed for never-trained clients.
  double initial_loss = 2.302585;
  /// Reliability multiplier applied per reported failure; successes recover.
  double failure_factor = 0.5;
  double min_reliability = 1.0 / 64.0;
};

class FedLeccSelector final : public fl::ClientSelector {
 public:
  /// `label_counts[i]` is client i's per-class label count (or distribution;
  /// normalized internally). Clustering happens once, at construction.
  FedLeccSelector(std::vector<std::vector<double>> label_counts,
                  FedLeccConfig config);

  void initialize(const std::vector<fl::ClientRuntimeInfo>& clients) override;
  std::vector<std::size_t> select(
      std::size_t k, const std::vector<fl::ClientRuntimeInfo>& clients,
      std::size_t epoch, Rng& rng) override;
  void report_result(std::size_t client_id, double loss,
                     std::size_t epoch) override;
  void report_failure(std::size_t client_id, std::size_t epoch,
                      fl::FailureKind kind) override;
  std::string name() const override { return "FedLECC"; }

  std::size_t num_clusters() const { return clusters_.size(); }
  int cluster_of(std::size_t client_id) const { return cluster_of_[client_id]; }
  double reliability_of(std::size_t client_id) const;

  std::vector<std::uint8_t> save_state() const override;
  void load_state(std::span<const std::uint8_t> state) override;

 private:
  double loss_of(std::size_t client_id) const;

  FedLeccConfig config_;
  std::size_t population_ = 0;
  std::vector<int> cluster_of_;                    // structural
  std::vector<std::vector<std::size_t>> clusters_; // structural
  std::vector<double> observed_loss_;  // NaN until first observation
  std::vector<double> reliability_;    // in (0, 1]
};

}  // namespace haccs::select
