#include "src/select/hics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/stats/distance.hpp"

namespace haccs::select {

// The weight formula's additive floor and latency exponent (hics.hpp).
constexpr double kBaseWeight = 0.05, kLatencyBeta = 0.5;

HicsSelector::HicsSelector(std::vector<std::vector<double>> label_counts,
                           HicsConfig config)
    : FeedbackSelector(label_counts.size(), config.initial_loss) {
  if (label_counts.empty()) {
    throw std::invalid_argument("HicsSelector: empty population");
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
    double w = (kBaseWeight + heterogeneity_[id]) *
               std::max(loss_of(id), 1.0e-6) * reliability_of(id);
    if (clients[id].latency_s > 0.0 && min_latency > 0.0) {
      w *= std::pow(min_latency / clients[id].latency_s, kLatencyBeta);
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
