// Stratified cluster coverage — an additional scheduling strategy in the
// direction the paper names as future work (§V-E: "exploring additional
// scheduling strategies will be an important future research direction").
//
// Where Algorithm 1 samples clusters WITH replacement (Weighted-SRSWR, so a
// high-weight cluster can fill several of the k slots), the stratified
// policy guarantees coverage first: each round deterministically walks the
// clusters in a rotating order, taking one device per cluster until k slots
// are filled; when k exceeds the cluster count the remainder is filled by a
// second pass. In-cluster picks rotate round-robin over members ordered by
// latency, so every device participates periodically regardless of loss —
// the zero-bias end of the spectrum (contrast with rho in Eq. 7).
#pragma once

#include <vector>

#include "src/fl/selector.hpp"

namespace haccs::core {

class StratifiedSelector final : public fl::ClientSelector {
 public:
  /// Uses precomputed cluster labels (e.g. core::cluster_clients; noise
  /// remapped to singletons).
  explicit StratifiedSelector(std::vector<int> cluster_labels);

  std::vector<std::size_t> select(std::size_t k,
                                  const std::vector<fl::ClientRuntimeInfo>& clients,
                                  std::size_t epoch, Rng& rng) override;
  std::string name() const override { return "HACCS-stratified"; }

  std::size_t num_clusters() const { return clusters_.size(); }
  const std::vector<std::vector<std::size_t>>& clusters() const {
    return clusters_;
  }

 private:
  std::vector<std::vector<std::size_t>> clusters_;
  /// Rotating start cluster and per-cluster member cursors.
  std::size_t next_cluster_ = 0;
  std::vector<std::size_t> member_cursor_;
};

}  // namespace haccs::core
