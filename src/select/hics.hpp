// Heterogeneity-weighted importance selection (HiCS-style: weight clients by
// how far their label distribution sits from the population aggregate; see
// PAPERS.md), re-implemented from the published idea.
//
// Each client gets a static heterogeneity score het_i = Hellinger(p_i, p̄)
// against the population-mean label distribution; per round, clients are
// drawn WITHOUT replacement with probability proportional to
//
//   (base + het_i) * loss_i * reliability_i * (t_min / t_i)^beta
//
// — loss keeps the statistical-utility signal, the latency term softly
// prefers fast clients, and the heterogeneity factor keeps rare
// distributions represented, which is the one-shot (non-clustered) version
// of the coverage HACCS gets from Eq. 7.
#pragma once

#include <vector>

#include "src/fl/selector.hpp"

namespace haccs::select {

struct HicsConfig {
  /// Additive floor so a perfectly-average client keeps a nonzero weight.
  double base = 0.05;
  /// Exponent of the (t_min / t_i) latency preference; 0 disables it.
  double latency_beta = 0.5;
  /// Loss assumed for never-trained clients.
  double initial_loss = 2.302585;
  /// Reliability multiplier applied per reported failure; successes recover.
  double failure_factor = 0.5;
  double min_reliability = 1.0 / 64.0;
};

class HicsSelector final : public fl::ClientSelector {
 public:
  /// `label_counts[i]` is client i's per-class label count (or distribution;
  /// normalized internally). Heterogeneity scores are fixed at construction.
  HicsSelector(std::vector<std::vector<double>> label_counts,
               HicsConfig config);

  void initialize(const std::vector<fl::ClientRuntimeInfo>& clients) override;
  std::vector<std::size_t> select(
      std::size_t k, const std::vector<fl::ClientRuntimeInfo>& clients,
      std::size_t epoch, Rng& rng) override;
  void report_result(std::size_t client_id, double loss,
                     std::size_t epoch) override;
  void report_failure(std::size_t client_id, std::size_t epoch,
                      fl::FailureKind kind) override;
  std::string name() const override { return "HiCS"; }

  /// Static heterogeneity score of a client — for tests.
  double heterogeneity_of(std::size_t client_id) const;
  double reliability_of(std::size_t client_id) const;

  std::vector<std::uint8_t> save_state() const override;
  void load_state(std::span<const std::uint8_t> state) override;

 private:
  HicsConfig config_;
  std::size_t population_ = 0;
  std::vector<double> heterogeneity_;  // structural
  std::vector<double> observed_loss_;  // NaN until first observation
  std::vector<double> reliability_;    // in (0, 1]
};

}  // namespace haccs::select
