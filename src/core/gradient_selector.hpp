// Gradient-direction clustered selection — the paper's §IV-A alternative
// summary ("gradients of the loss function or model weights could also be
// leveraged... devices may have gradients that point in similar
// directions"), implemented so the trade-off the paper predicts can be
// measured: gradient clusters need re-clustering every few epochs because
// directions change as the model trains, where data summaries stay stable.
//
// Each participant's parameter update is sketched by a seeded sparse
// random projection (Johnson-Lindenstrauss: cosine structure survives the
// projection; the projection is hashed per coordinate, never stored), so
// the server keeps O(sketch_dim) floats per client instead of a full model
// copy. Clients never yet observed form singleton clusters.
// Selection reuses the HACCS cluster machinery (Eqs. 6-7, Weighted-SRSWR,
// min-latency in-cluster).
#pragma once

#include <span>
#include <vector>

#include "src/core/haccs_selector.hpp"

namespace haccs::core {

struct GradientSelectorConfig {
  /// Sketch dimensionality for the random projection.
  std::size_t sketch_dim = 64;
  /// Re-cluster every N epochs (gradients go stale quickly; the paper notes
  /// this summary "requires that... clustering be performed each epoch").
  std::size_t recluster_every = 5;
  /// Cosine-distance threshold for the DBSCAN grouping of sketches.
  double eps = 0.3;
  /// Shared scheduling knobs (rho, in-cluster policy, initial loss).
  HaccsConfig scheduling;
};

/// The unit-norm sketch of one parameter update: a sparse seeded
/// Johnson-Lindenstrauss projection into `dim` slots (zero for a zero
/// update). Deterministic in the update, so equal updates sketch equally.
std::vector<float> sketch_update(std::span<const float> update,
                                 std::size_t dim);

class GradientClusterSelector final : public fl::ClientSelector {
 public:
  explicit GradientClusterSelector(GradientSelectorConfig config);

  void initialize(const std::vector<fl::ClientRuntimeInfo>& clients) override;
  std::vector<std::size_t> select(std::size_t k,
                                  const std::vector<fl::ClientRuntimeInfo>& clients,
                                  std::size_t epoch, Rng& rng) override;
  void report_result(std::size_t client_id, double loss,
                     std::size_t epoch) override;
  void report_update(std::size_t client_id, std::span<const float> update,
                     std::size_t epoch) override;
  std::string name() const override { return "HACCS-gradient"; }

  std::size_t num_clusters() const { return inner_.num_clusters(); }
  const std::vector<int>& cluster_of() const { return inner_.cluster_of(); }

 private:
  void recluster(std::size_t num_clients);

  GradientSelectorConfig config_;
  HaccsSelector inner_;
  std::vector<std::vector<float>> sketches_;  // per client; empty = unseen
};

}  // namespace haccs::core
