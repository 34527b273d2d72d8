#include "src/select/dpp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/net/wire.hpp"
#include "src/stats/distance.hpp"

namespace haccs::select {

DppSelector::DppSelector(std::vector<std::vector<double>> label_counts,
                         DppConfig config)
    : config_(config), population_(label_counts.size()) {
  if (population_ == 0) {
    throw std::invalid_argument("DppSelector: empty population");
  }
  if (config_.failure_factor <= 0.0 || config_.failure_factor > 1.0) {
    throw std::invalid_argument("DppSelector: bad failure_factor");
  }
  similarity_.assign(population_ * population_, 1.0);
  for (std::size_t i = 0; i < population_; ++i) {
    for (std::size_t j = i + 1; j < population_; ++j) {
      const double s =
          1.0 - stats::distribution_distance(label_counts[i], label_counts[j],
                                             stats::DistanceKind::Hellinger);
      similarity_[i * population_ + j] = s;
      similarity_[j * population_ + i] = s;
    }
  }
  observed_loss_.assign(population_, std::numeric_limits<double>::quiet_NaN());
  reliability_.assign(population_, 1.0);
}

void DppSelector::initialize(
    const std::vector<fl::ClientRuntimeInfo>& clients) {
  if (clients.size() != population_) {
    throw std::invalid_argument(
        "DppSelector: runtime view does not match the summarized population");
  }
}

double DppSelector::similarity(std::size_t a, std::size_t b) const {
  return similarity_[a * population_ + b];
}

double DppSelector::reliability_of(std::size_t client_id) const {
  return client_id < reliability_.size() ? reliability_[client_id] : 1.0;
}

double DppSelector::quality(const fl::ClientRuntimeInfo& client) const {
  const double loss = std::isnan(observed_loss_[client.id])
                          ? config_.initial_loss
                          : observed_loss_[client.id];
  // sqrt keeps the kernel's quality^2 diagonal linear in (samples x loss),
  // the same statistical-utility shape Oort exploits.
  const double q = std::sqrt(static_cast<double>(client.num_samples) *
                             std::max(loss, 1.0e-6)) *
                   reliability_[client.id];
  return std::max(q, 1.0e-9);
}

void DppSelector::report_result(std::size_t client_id, double loss,
                                std::size_t /*epoch*/) {
  if (client_id >= observed_loss_.size()) return;
  observed_loss_[client_id] = loss;
  reliability_[client_id] += 0.5 * (1.0 - reliability_[client_id]);
}

void DppSelector::report_failure(std::size_t client_id, std::size_t /*epoch*/,
                                 fl::FailureKind /*kind*/) {
  if (client_id >= reliability_.size()) return;
  reliability_[client_id] = std::max(
      config_.min_reliability, reliability_[client_id] * config_.failure_factor);
}

std::vector<std::size_t> DppSelector::select(
    std::size_t k, const std::vector<fl::ClientRuntimeInfo>& clients,
    std::size_t /*epoch*/, Rng& rng) {
  if (clients.size() != population_) initialize(clients);

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

std::vector<std::uint8_t> DppSelector::save_state() const {
  net::WireWriter w;
  w.string("DPP");
  w.u16(1);  // state-blob version
  w.f64_array(observed_loss_);
  w.f64_array(reliability_);
  return w.take();
}

void DppSelector::load_state(std::span<const std::uint8_t> state) {
  net::WireReader r(state);
  if (r.string() != "DPP") {
    throw std::runtime_error("DppSelector: state blob from another selector");
  }
  if (r.u16() != 1) {
    throw std::runtime_error("DppSelector: unsupported state version");
  }
  auto observed = r.f64_array();
  auto reliability = r.f64_array();
  r.expect_exhausted();
  if (observed.size() != population_ || reliability.size() != population_) {
    throw std::runtime_error("DppSelector: state population mismatch");
  }
  observed_loss_ = std::move(observed);
  reliability_ = std::move(reliability);
}

}  // namespace haccs::select
