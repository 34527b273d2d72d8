#include "src/core/gradient_selector.hpp"

#include <cmath>
#include <stdexcept>

#include "src/stats/distance.hpp"

namespace haccs::core {

/// Seeds the sparse random projection of update deltas into sketches.
constexpr std::uint64_t kProjectionSeed = 211;

std::vector<float> sketch_update(std::span<const float> update,
                                 std::size_t dim) {
  // Each update coordinate scatters into two signed sketch slots chosen by
  // a hash of its index. O(update.size()).
  std::vector<float> sketch(dim, 0.0f);
  for (std::size_t i = 0; i < update.size(); ++i) {
    SplitMix64 h(kProjectionSeed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
    const std::uint64_t bits = h.next();
    const std::size_t d1 = bits % dim;
    const std::size_t d2 = (bits >> 20) % dim;
    const float s1 = (bits >> 40) & 1 ? 1.0f : -1.0f;
    const float s2 = (bits >> 41) & 1 ? 1.0f : -1.0f;
    sketch[d1] += s1 * update[i];
    sketch[d2] += s2 * update[i];
  }
  // Unit-normalize: cosine structure is what clusters gradient directions.
  double norm = 0.0;
  for (float v : sketch) norm += static_cast<double>(v) * v;
  norm = std::sqrt(norm);
  if (norm > 0.0) {
    for (float& v : sketch) v = static_cast<float>(v / norm);
  }
  return sketch;
}

GradientClusterSelector::GradientClusterSelector(GradientSelectorConfig config)
    : config_(config), inner_(std::vector<int>{}, config.scheduling) {
  if (config_.sketch_dim == 0) {
    throw std::invalid_argument("GradientClusterSelector: zero sketch dim");
  }
  if (config_.recluster_every == 0) {
    throw std::invalid_argument(
        "GradientClusterSelector: recluster_every must be > 0");
  }
}

void GradientClusterSelector::initialize(
    const std::vector<fl::ClientRuntimeInfo>& clients) {
  sketches_.assign(clients.size(), {});
  // Everyone starts as a singleton: no gradient information yet.
  std::vector<int> singletons(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    singletons[i] = static_cast<int>(i);
  }
  inner_ = HaccsSelector(std::move(singletons), config_.scheduling);
}

void GradientClusterSelector::report_result(std::size_t client_id, double loss,
                                            std::size_t epoch) {
  inner_.report_result(client_id, loss, epoch);
}

void GradientClusterSelector::report_update(std::size_t client_id,
                                            std::span<const float> update,
                                            std::size_t /*epoch*/) {
  if (client_id >= sketches_.size()) return;
  sketches_[client_id] = sketch_update(update, config_.sketch_dim);
}

void GradientClusterSelector::recluster(std::size_t num_clients) {
  auto distance = [&](std::size_t i, std::size_t j) -> double {
    if (sketches_[i].empty() || sketches_[j].empty()) {
      return 1.0;  // unseen clients match nobody
    }
    const auto& a = sketches_[i];
    const auto& b = sketches_[j];
    // Sketches can be negative; shift into the cosine on raw dot product.
    double dot = 0.0;
    for (std::size_t d = 0; d < a.size(); ++d) {
      dot += static_cast<double>(a[d]) * static_cast<double>(b[d]);
    }
    return std::min(1.0, std::max(0.0, 1.0 - dot));  // unit vectors
  };
  const auto matrix = clustering::DistanceMatrix::build(num_clients, distance);
  const auto labels =
      clustering::dbscan(matrix, {.eps = config_.eps, .min_pts = 2});
  inner_.set_clusters(labels);
}

std::vector<std::size_t> GradientClusterSelector::select(
    std::size_t k, const std::vector<fl::ClientRuntimeInfo>& clients,
    std::size_t epoch, Rng& rng) {
  if (sketches_.size() != clients.size()) initialize(clients);
  if (epoch > 0 && epoch % config_.recluster_every == 0) {
    recluster(clients.size());
  }
  return inner_.select(k, clients, epoch, rng);
}

}  // namespace haccs::core
