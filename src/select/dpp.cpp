#include "src/select/dpp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/stats/distance.hpp"

namespace haccs::select {

namespace {

clustering::DistanceMatrix hellinger_matrix(
    const std::vector<std::vector<double>>& label_counts) {
  if (label_counts.empty()) {
    throw std::invalid_argument("DppSelector: empty population");
  }
  return clustering::DistanceMatrix::build(
      label_counts.size(), [&](std::size_t i, std::size_t j) {
        return stats::distribution_distance(label_counts[i], label_counts[j],
                                            stats::DistanceKind::Hellinger);
      });
}

}  // namespace

DppSelector::DppSelector(std::vector<std::vector<double>> label_counts,
                         DppConfig config)
    : FeedbackSelector(label_counts.size(), config.initial_loss),
      distances_(hellinger_matrix(label_counts)) {}

double DppSelector::similarity(std::size_t a, std::size_t b) const {
  return 1.0 - distances_.at(a, b);
}

double DppSelector::quality(const fl::ClientRuntimeInfo& client) const {
  // sqrt keeps the kernel's quality^2 diagonal linear in (samples x loss),
  // the same statistical-utility shape Oort exploits.
  const double q = std::sqrt(static_cast<double>(client.num_samples) *
                             std::max(loss_of(client.id), 1.0e-6)) *
                   reliability_of(client.id);
  return std::max(q, 1.0e-9);
}

std::vector<std::size_t> DppSelector::select(
    std::size_t k, const std::vector<fl::ClientRuntimeInfo>& clients,
    std::size_t /*epoch*/, Rng& rng) {
  if (clients.size() != population()) initialize(clients);

  auto ids = fl::available_ids(clients);
  if (ids.size() <= k) return ids;

  const std::size_t n = ids.size();
  // Conditional marginal gains under the kernel restricted to the available
  // set: d2[i] starts at L_ii = q_i^2 and shrinks as picked items explain
  // item i's direction (incremental Cholesky conditioning).
  std::vector<double> q(n);
  for (std::size_t i = 0; i < n; ++i) q[i] = quality(clients[ids[i]]);
  std::vector<double> d2(n);
  for (std::size_t i = 0; i < n; ++i) d2[i] = q[i] * q[i];
  std::vector<std::vector<double>> c(n);  // Cholesky rows vs. picked items
  std::vector<bool> picked(n, false);

  std::vector<std::size_t> out;
  out.reserve(k);
  std::vector<double> gain(n);
  while (out.size() < k) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      gain[i] = picked[i] ? 0.0 : std::max(d2[i], 0.0);
      total += gain[i];
    }
    std::size_t j;
    if (total > 1.0e-12) {
      j = rng.categorical(gain);
    } else {
      // Kernel exhausted (remaining items linearly dependent on the picks):
      // fall back to a uniform draw over the leftovers.
      std::vector<std::size_t> rest;
      for (std::size_t i = 0; i < n; ++i) {
        if (!picked[i]) rest.push_back(i);
      }
      j = rest[rng.uniform_index(rest.size())];
    }
    picked[j] = true;
    out.push_back(ids[j]);
    if (d2[j] > 1.0e-12) {
      const double denom = std::sqrt(d2[j]);
      for (std::size_t i = 0; i < n; ++i) {
        if (picked[i]) continue;
        double lij = q[i] * q[j] * similarity(ids[i], ids[j]);
        for (std::size_t t = 0; t < c[j].size(); ++t) lij -= c[i][t] * c[j][t];
        const double e = lij / denom;
        c[i].push_back(e);
        d2[i] -= e * e;
      }
      c[j].push_back(denom);  // keep row lengths aligned for later dots
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        if (!picked[i]) c[i].push_back(0.0);
      }
      c[j].push_back(0.0);
    }
  }
  return out;
}

}  // namespace haccs::select
