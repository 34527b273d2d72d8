// Heterogeneity-weighted importance selection (HiCS-style: weight clients by
// how far their label distribution sits from the population aggregate; see
// PAPERS.md), re-implemented from the published idea.
//
// Each client gets a static heterogeneity score het_i = Hellinger(p_i, p̄)
// against the population-mean label distribution; per round, clients are
// drawn WITHOUT replacement with probability proportional to
//
//   (0.05 + het_i) * loss_i * reliability_i * (t_min / t_i)^0.5
//
// — the 0.05 floor keeps a perfectly-average client's weight nonzero, loss
// keeps the statistical-utility signal, the latency term softly prefers
// fast clients, and the heterogeneity factor keeps rare
// distributions represented, which is the one-shot (non-clustered) version
// of the coverage HACCS gets from Eq. 7.
#pragma once

#include <vector>

#include "src/select/feedback_selector.hpp"

namespace haccs::select {

struct HicsConfig {
  /// Loss assumed for never-trained clients.
  double initial_loss = 2.302585;
};

class HicsSelector final : public FeedbackSelector {
 public:
  /// `label_counts[i]` is client i's per-class label count (or distribution;
  /// normalized internally). Heterogeneity scores are fixed at construction.
  HicsSelector(std::vector<std::vector<double>> label_counts,
               HicsConfig config);

  std::vector<std::size_t> select(
      std::size_t k, const std::vector<fl::ClientRuntimeInfo>& clients,
      std::size_t epoch, Rng& rng) override;
  std::string name() const override { return "HiCS"; }

  /// Static heterogeneity score of a client — for tests.
  double heterogeneity_of(std::size_t client_id) const;

 private:
  std::vector<double> heterogeneity_;  // structural
};

}  // namespace haccs::select
