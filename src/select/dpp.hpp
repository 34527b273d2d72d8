// Determinantal-point-process selection (Zhang et al., "Federated Learning
// with Client Diversity via Determinantal Point Processes"-style baselines;
// see PAPERS.md), re-implemented from the published idea.
//
// Clients are scored by a quality x diversity kernel
//
//   L_ij = q_i * q_j * S_ij,   S_ij = 1 - Hellinger(p_i, p_j)
//
// where p_i is client i's label distribution and q_i combines sample count,
// observed loss, and delivery reliability (both from FeedbackSelector). A
// draw from the DPP favors sets whose label distributions are mutually far
// apart — directly attacking the same non-IID waste HACCS clusters away, but
// without an explicit clustering stage. Exact sampling is O(n^3); we use the standard stochastic greedy MAP
// approximation (categorical over conditional marginal gains), which keeps
// selection deterministic in the engine's selection stream.
#pragma once

#include <vector>

#include "src/clustering/distance_matrix.hpp"
#include "src/select/feedback_selector.hpp"

namespace haccs::select {

struct DppConfig {
  /// Loss assumed for never-trained clients (ln 10: uniform over 10 classes).
  double initial_loss = 2.302585;
};

class DppSelector final : public FeedbackSelector {
 public:
  /// `label_counts[i]` is client i's per-class label count (or distribution;
  /// normalized internally). The similarity kernel is fixed at construction.
  DppSelector(std::vector<std::vector<double>> label_counts, DppConfig config);

  std::vector<std::size_t> select(
      std::size_t k, const std::vector<fl::ClientRuntimeInfo>& clients,
      std::size_t epoch, Rng& rng) override;
  std::string name() const override { return "DPP"; }

  /// Kernel similarity between two clients (1 - Hellinger) — for tests.
  double similarity(std::size_t a, std::size_t b) const;

 private:
  double quality(const fl::ClientRuntimeInfo& client) const;

  clustering::DistanceMatrix distances_;  // Hellinger; structural
};

}  // namespace haccs::select
