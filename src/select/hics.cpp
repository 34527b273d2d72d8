#include "src/select/hics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/stats/distance.hpp"

namespace haccs::select {

HicsSelector::HicsSelector(std::vector<std::vector<double>> label_counts,
                           HicsConfig config)
    : FeedbackSelector(label_counts.size(), config.initial_loss),
      config_(config) {
  if (label_counts.empty()) {
    throw std::invalid_argument("HicsSelector: empty population");
  }
  if (config_.base < 0.0 || config_.latency_beta < 0.0) {
    throw std::invalid_argument("HicsSelector: bad config");
  }
  // Population-mean distribution: normalize each client first so a large
  // client cannot pass for "the average" by sheer sample mass.
  std::size_t classes = 0;
  for (const auto& counts : label_counts) {
    classes = std::max(classes, counts.size());
  }
  std::vector<double> mean(classes, 0.0);
  for (auto& counts : label_counts) {
    counts.resize(classes, 0.0);
    double total = 0.0;
    for (double c : counts) total += std::max(c, 0.0);
    if (total <= 0.0) continue;
    for (std::size_t j = 0; j < classes; ++j) {
      mean[j] += std::max(counts[j], 0.0) / total;
    }
  }
  heterogeneity_.reserve(label_counts.size());
  for (const auto& counts : label_counts) {
    heterogeneity_.push_back(stats::distribution_distance(
        counts, mean, stats::DistanceKind::Hellinger));
  }
}

double HicsSelector::heterogeneity_of(std::size_t client_id) const {
  return client_id < heterogeneity_.size() ? heterogeneity_[client_id] : 0.0;
}

std::vector<std::size_t> HicsSelector::select(
    std::size_t k, const std::vector<fl::ClientRuntimeInfo>& clients,
    std::size_t /*epoch*/, Rng& rng) {
  if (clients.size() != population()) initialize(clients);

  auto ids = fl::available_ids(clients);
  if (ids.size() <= k) return ids;

  double min_latency = std::numeric_limits<double>::infinity();
  for (std::size_t id : ids) {
    min_latency = std::min(min_latency, clients[id].latency_s);
  }
  std::vector<double> weight(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::size_t id = ids[i];
    double w = (config_.base + heterogeneity_[id]) *
               std::max(loss_of(id), 1.0e-6) * reliability_of(id);
    if (config_.latency_beta > 0.0 && clients[id].latency_s > 0.0 &&
        min_latency > 0.0) {
      w *= std::pow(min_latency / clients[id].latency_s, config_.latency_beta);
    }
    weight[i] = std::max(w, 1.0e-12);
  }

  // k categorical draws without replacement (zero out each pick).
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t draw = 0; draw < k; ++draw) {
    const std::size_t i = rng.categorical(weight);
    out.push_back(ids[i]);
    weight[i] = 0.0;
  }
  return out;
}

}  // namespace haccs::select
