#include "src/select/fedlecc.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/clustering/dbscan.hpp"
#include "src/clustering/distance_matrix.hpp"
#include "src/clustering/groups.hpp"
#include "src/stats/distance.hpp"

namespace haccs::select {

FedLeccSelector::FedLeccSelector(std::vector<std::vector<double>> label_counts,
                                 FedLeccConfig config)
    : FeedbackSelector(label_counts.size(), config.initial_loss) {
  if (label_counts.empty()) {
    throw std::invalid_argument("FedLeccSelector: empty population");
  }
  if (config.eps <= 0.0 || config.min_pts == 0) {
    throw std::invalid_argument("FedLeccSelector: bad DBSCAN parameters");
  }
  const auto matrix = clustering::DistanceMatrix::build(
      label_counts.size(), [&](std::size_t i, std::size_t j) {
        return stats::distribution_distance(label_counts[i], label_counts[j],
                                            stats::DistanceKind::Hellinger);
      });
  // Noise points become singleton clusters: an outlier distribution is
  // exactly the client a diversity-seeking policy must still reach.
  auto groups = clustering::group_by_label(
      clustering::dbscan(matrix, {config.eps, config.min_pts}));
  cluster_of_ = std::move(groups.cluster_of);
  clusters_ = std::move(groups.members);
}

std::vector<std::size_t> FedLeccSelector::select(
    std::size_t k, const std::vector<fl::ClientRuntimeInfo>& clients,
    std::size_t /*epoch*/, Rng& rng) {
  if (clients.size() != population()) initialize(clients);

  auto ids = fl::available_ids(clients);
  if (ids.size() <= k) return ids;

  std::vector<std::size_t> out;
  out.reserve(k);

  // Per-cluster remaining available members, maintained across draws.
  std::vector<std::vector<std::size_t>> open(clusters_.size());
  for (std::size_t id : ids) {
    open[static_cast<std::size_t>(cluster_of_[id])].push_back(id);
  }

  std::vector<double> weight(clusters_.size());
  while (out.size() < k) {
    double total = 0.0;
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
      // Remaining loss mass of the cluster: |members| x mean observed (or
      // initial) loss — big, badly-fit clusters get drawn more often.
      double loss_sum = 0.0;
      for (std::size_t id : open[c]) loss_sum += loss_of(id);
      weight[c] = loss_sum;
      total += weight[c];
    }
    if (total <= 0.0) break;  // cannot happen: losses are positive
    const std::size_t c = rng.categorical(weight);
    // Exploit within the drawn cluster: highest reliability-weighted loss,
    // ties broken toward the faster, then lower-id, client.
    std::size_t best = open[c].front();
    double best_score = -1.0;
    for (std::size_t id : open[c]) {
      const double score = loss_of(id) * reliability_of(id);
      if (score > best_score ||
          (score == best_score &&
           (clients[id].latency_s < clients[best].latency_s ||
            (clients[id].latency_s == clients[best].latency_s && id < best)))) {
        best = id;
        best_score = score;
      }
    }
    out.push_back(best);
    auto& members = open[c];
    members.erase(std::find(members.begin(), members.end(), best));
  }
  return out;
}

}  // namespace haccs::select
