#include "src/core/haccs_selector.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <utility>
#include <stdexcept>

#include "src/clustering/groups.hpp"
#include "src/common/error.hpp"
#include "src/common/mutation.hpp"
#include "src/net/wire.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace haccs::core {

HaccsConfig HaccsSelector::validated(HaccsConfig config) {
  if (config.rho < 0.0 || config.rho > 1.0) {
    throw std::invalid_argument("HaccsSelector: rho must be in [0, 1]");
  }
  return config;
}

HaccsSelector::HaccsSelector(const data::FederatedDataset& dataset,
                             HaccsConfig config)
    : config_(validated(std::move(config))), dataset_(&dataset) {
  auto summaries = compute_summaries(dataset, config_);
  const std::size_t n = summaries.size();
  sync(std::move(summaries), std::vector<bool>(n, true), /*initial=*/true);
}

HaccsSelector::HaccsSelector(std::vector<int> cluster_labels,
                             HaccsConfig config)
    : config_(validated(std::move(config))) {
  build_clusters(std::move(cluster_labels));
}

HaccsSelector HaccsSelector::from_summaries(
    std::vector<ClientSummary> summaries, HaccsConfig config) {
  HaccsSelector selector(std::vector<int>{}, std::move(config));
  const std::size_t n = summaries.size();
  selector.sync(std::move(summaries), std::vector<bool>(n, true),
                /*initial=*/true);
  return selector;
}

std::string HaccsSelector::name() const {
  return "HACCS-" + stats::to_string(config_.summary);
}

void HaccsSelector::recluster(const data::FederatedDataset& dataset) {
  obs::Span span("recluster", "clustering");
  auto& registry = obs::Registry::global();
  registry.counter("recluster_total").inc();
  // Looked up on every call so /metrics lists it before the first reuse.
  auto& reused = registry.counter("recluster_reused_total");
  auto summaries = compute_summaries(dataset, config_);
  // Clients keep their liveness; clients the dataset grew by join live.
  auto live = population_->live;
  live.resize(summaries.size(), true);
  const std::size_t changed =
      sync(std::move(summaries), std::move(live), /*initial=*/false);
  span.set_arg("changed_clients", static_cast<std::int64_t>(changed));
  if (changed == 0 && !config_.scale.enabled) reused.inc();
}

bool HaccsSelector::recluster_live(std::vector<bool> live) {
  if (live.size() != population_->live.size()) {
    throw std::invalid_argument(
        "HaccsSelector::recluster_live: mask of " +
        std::to_string(live.size()) + " clients for a population of " +
        std::to_string(population_->live.size()) + " summarized clients");
  }
  if (live == population_->live) return false;
  obs::Span span("recluster_live", "clustering");
  sync(std::nullopt, std::move(live), /*initial=*/false);
  obs::Registry::global().counter("recluster_live_total").inc();
  return true;
}

namespace {

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Bitwise equality of two summaries: equal summaries cluster identically.
bool same_summary(const ClientSummary& a, const ClientSummary& b) {
  if (a.kind != b.kind ||
      !same_bits(a.response.label_counts.counts(),
                 b.response.label_counts.counts()) ||
      a.conditional.per_label.size() != b.conditional.per_label.size() ||
      a.quantile.per_label.size() != b.quantile.per_label.size() ||
      !same_bits(a.quantile.mass, b.quantile.mass)) {
    return false;
  }
  for (std::size_t c = 0; c < a.conditional.per_label.size(); ++c) {
    if (!same_bits(a.conditional.per_label[c].counts(),
                   b.conditional.per_label[c].counts())) {
      return false;
    }
  }
  for (std::size_t c = 0; c < a.quantile.per_label.size(); ++c) {
    if (!same_bits(a.quantile.per_label[c], b.quantile.per_label[c])) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::size_t HaccsSelector::sync(
    std::optional<std::vector<ClientSummary>> fresh, std::vector<bool> live,
    bool initial) {
  Population& pop = *population_;
  const std::size_t old_n = pop.summaries.size();
  const std::size_t n = live.size();
  auto sketch_of = [&](std::size_t c) {
    return summary_embedding(fresh ? (*fresh)[c] : pop.summaries[c],
                             config_.scale.sketch_dim, config_.scale.seed);
  };
  if (config_.scale.enabled && incremental_ == nullptr) {
    auto exact = [population = population_, kind = config_.response_distance](
                     std::size_t i, std::size_t j) {
      const auto& p = *population;
      return ClientSummary::distance(p.summaries[p.client_of_id[i]],
                                     p.summaries[p.client_of_id[j]], kind);
    };
    auto cluster = [config = config_](const clustering::NeighborIndex& index) {
      return cluster_index(index, config);
    };
    incremental_ = std::make_unique<scale::IncrementalClusterer>(
        config_.scale.sketch_dim, std::move(exact), std::move(cluster),
        config_.scale);
  }
  if (incremental_) id_of_client_.resize(std::max(n, old_n));

  // Every client that joined, left, drifted or flipped liveness counts as
  // changed. Ascending client order fixes the clusterer's id recycling.
  std::size_t changed = 0;
  for (std::size_t c = 0; c < std::max(n, old_n); ++c) {
    const bool was = c < old_n && pop.live[c];
    const bool is = c < n && live[c];
    if (was && is) {
      if (!fresh) continue;
      if (!incremental_) {
        if (!same_summary((*fresh)[c], pop.summaries[c])) ++changed;
        continue;
      }
      // The scale path diffs what the clusterer sees: the sketch. A client
      // with an identical sketch keeps its clean shard.
      const auto sketch = sketch_of(c);
      const auto current = incremental_->sketches().row(id_of_client_[c]);
      if (std::equal(current.begin(), current.end(), sketch.begin())) continue;
      incremental_->update_client(id_of_client_[c], sketch);
    } else if (was) {
      if (incremental_) incremental_->remove_client(id_of_client_[c]);
    } else if (is) {
      if (incremental_) {
        const std::size_t id = incremental_->add_client(sketch_of(c));
        if (pop.client_of_id.size() <= id) pop.client_of_id.resize(id + 1);
        pop.client_of_id[id] = c;
        id_of_client_[c] = id;
      }
    } else {
      continue;
    }
    ++changed;
  }
  if (incremental_) id_of_client_.resize(n);
  if (fresh) pop.summaries = std::move(*fresh);
  pop.live = std::move(live);

  if (incremental_) {
    if (initial) {
      incremental_->rebuild();
    } else {
      incremental_->recompute_if_dirty();
    }
    labels_.assign(n, -1);
    for (std::size_t c = 0; c < n; ++c) {
      if (pop.live[c]) labels_[c] = incremental_->label_of(id_of_client_[c]);
    }
  } else if (changed > 0 || old_n == 0) {
    // The live clients, in client order, are the population the exact
    // pipeline clusters (scale is off on this branch), read in place from
    // the store by index; departed clients stay -1. With every client
    // departed there is nothing to cluster; an empty population still runs
    // the pipeline, which rejects it.
    std::vector<std::size_t> members;
    for (std::size_t c = 0; c < n; ++c) {
      if (pop.live[c]) members.push_back(c);
    }
    labels_.assign(n, -1);
    if (!members.empty() || n == 0) {
      const auto labels = cluster_distances(
          summary_distances(pop.summaries, members, config_.response_distance),
          config_);
      for (std::size_t i = 0; i < members.size(); ++i) {
        labels_[members[i]] = labels[i];
      }
    }
  }
  build_clusters(labels_);
  return changed;
}

void HaccsSelector::set_clusters(std::vector<int> cluster_labels) {
  if (!cluster_of_.empty() && cluster_labels.size() != cluster_of_.size()) {
    throw std::invalid_argument("set_clusters: arity mismatch");
  }
  build_clusters(std::move(cluster_labels));
}

void HaccsSelector::build_clusters(std::vector<int> raw_labels) {
  // Noise becomes singleton clusters: a client whose distribution matches
  // nobody must still be representable in scheduling.
  auto groups = clustering::group_by_label(std::move(raw_labels));
  cluster_of_ = std::move(groups.cluster_of);
  clusters_ = std::move(groups.members);
  // Reliability penalties survive reclustering (they describe devices, not
  // clusters); replacement IOUs do not (their cluster ids are stale).
  penalty_.resize(cluster_of_.size(), 1.0);
  replacement_queue_.clear();
  obs::Registry::global()
      .gauge("haccs_clusters")
      .set(static_cast<double>(clusters_.size()));
}

void HaccsSelector::report_failure(std::size_t client_id, std::size_t /*epoch*/,
                                   fl::FailureKind /*kind*/) {
  if (client_id >= cluster_of_.size()) return;
  // Decay the failed device's intra-cluster priority: its effective latency
  // is inflated by the penalty, so the next-fastest same-distribution device
  // stands in — the paper's robustness story applied to mid-round faults.
  double factor = config_.failure_penalty;
#if HACCS_MUTATIONS
  if (mutation::enabled(mutation::Kind::DropFailurePenalty)) factor = 1.0;
#endif
  penalty_[client_id] = std::min(penalty_[client_id] * factor, 1.0e6);
  // Owe the cluster a replacement: the distribution keeps its seat.
  if (config_.failure_replacement) {
    replacement_queue_.push_back(
        static_cast<std::size_t>(cluster_of_[client_id]));
  }
}

double HaccsSelector::failure_penalty_of(std::size_t client_id) const {
  return client_id < penalty_.size() ? penalty_[client_id] : 1.0;
}

std::vector<std::uint8_t> HaccsSelector::save_state() const {
  net::WireWriter w;
  w.string("HACCS");
  w.u16(1);  // state-blob version
  w.f64_array(penalty_);
  w.u64(replacement_queue_.size());
  for (std::size_t cluster : replacement_queue_) {
    w.u64(static_cast<std::uint64_t>(cluster));
  }
  return w.take();
}

void HaccsSelector::load_state(std::span<const std::uint8_t> state) {
  net::WireReader r(state);
  if (r.string() != "HACCS") {
    throw std::runtime_error("HaccsSelector: state blob from another selector");
  }
  if (r.u16() != 1) {
    throw std::runtime_error("HaccsSelector: unsupported state version");
  }
  auto penalty = r.f64_array();
  if (penalty.size() != penalty_.size()) {
    throw std::runtime_error("HaccsSelector: state population mismatch");
  }
  const auto queue_len = r.u64();
  std::vector<std::size_t> queue;
  queue.reserve(static_cast<std::size_t>(queue_len));
  for (std::uint64_t i = 0; i < queue_len; ++i) {
    queue.push_back(static_cast<std::size_t>(r.u64()));
  }
  r.expect_exhausted();
  penalty_ = std::move(penalty);
  replacement_queue_ = std::move(queue);
}

std::vector<double> HaccsSelector::cluster_weights(
    const std::vector<fl::ClientRuntimeInfo>& clients) const {
  HACCS_CHECK_MSG(clients.size() == cluster_of_.size(),
                  "HaccsSelector: view arity mismatch");
  const std::size_t k = clusters_.size();
  std::vector<double> avg_loss(k, 0.0), avg_latency(k, 0.0);
  for (std::size_t c = 0; c < k; ++c) {
    double loss_sum = 0.0, latency_sum = 0.0;
    for (std::size_t member : clusters_[c]) {
      loss_sum += clients[member].last_loss;
      latency_sum += clients[member].latency_s;
    }
    const auto n = static_cast<double>(clusters_[c].size());
    avg_loss[c] = loss_sum / n;
    avg_latency[c] = latency_sum / n;
  }

  const double latency_max =
      *std::max_element(avg_latency.begin(), avg_latency.end());
  double loss_total = 0.0;
  for (double l : avg_loss) loss_total += l;

  std::vector<double> weights(k, 0.0);
  for (std::size_t c = 0; c < k; ++c) {
    const double tau =
        latency_max > 0.0 ? 1.0 - avg_latency[c] / latency_max : 0.0;  // Eq. 6
    double norm_loss = loss_total > 0.0 ? avg_loss[c] / loss_total : 0.0;
#if HACCS_MUTATIONS
    // Deliberate bug for the fuzzer's mutation-smoke check (TESTING.md):
    // skips the ACL_i / ΣACL_j normalization.
    if (mutation::enabled(mutation::Kind::DropEq7Normalization)) {
      norm_loss = avg_loss[c];
    }
#endif
    weights[c] = config_.rho * tau + (1.0 - config_.rho) * norm_loss;  // Eq. 7
  }
  // Degenerate case (single cluster with rho = 1 gives all-zero weights):
  // fall back to uniform so sampling stays well-defined.
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0.0) std::fill(weights.begin(), weights.end(), 1.0);
  return weights;
}

std::vector<std::size_t> HaccsSelector::select(
    std::size_t k, const std::vector<fl::ClientRuntimeInfo>& clients,
    std::size_t epoch, Rng& rng) {
  // §IV-C adaptation: refresh cluster assignments from current summaries on
  // the configured cadence (the dataset reference sees any drift applied by
  // the experiment's epoch callback).
  if (config_.recluster_every > 0 && dataset_ != nullptr && epoch > 0 &&
      epoch % config_.recluster_every == 0) {
    recluster(*dataset_);
  }
  const auto weights = cluster_weights(clients);

  // Remaining (available, not yet chosen) members per cluster.
  std::vector<std::vector<std::size_t>> remaining(clusters_.size());
  std::size_t total_available = 0;
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    for (std::size_t member : clusters_[c]) {
      if (clients[member].available) {
        remaining[c].push_back(member);
        ++total_available;
      }
    }
  }
  if (total_available == 0) return {};
  k = std::min(k, total_available);

  // Reliability penalties decay toward 1 each epoch (exactly 1 stays 1, so
  // fault-free runs take the identical code path).
  for (double& p : penalty_) {
    p = 1.0 + (p - 1.0) * config_.failure_penalty_decay;
  }

  // Effective latency for in-cluster ranking: expected latency inflated by
  // the device's reliability penalty.
  auto effective_latency = [&](std::size_t id) {
    return clients[id].latency_s * penalty_[id];
  };

  auto pick_from = [&](std::vector<std::size_t>& pool) -> std::size_t {
    HACCS_CHECK(!pool.empty());
    std::size_t chosen_index = 0;
    if (config_.in_cluster == InClusterPolicy::MinLatency) {
      for (std::size_t i = 1; i < pool.size(); ++i) {
        if (effective_latency(pool[i]) <
            effective_latency(pool[chosen_index])) {
          chosen_index = i;
        }
      }
    } else {
      // Latency-weighted sampling: weight ∝ 1 / latency, so stragglers keep
      // a nonzero chance (§V-E's bias mitigation).
      std::vector<double> w;
      w.reserve(pool.size());
      for (std::size_t id : pool) {
        w.push_back(1.0 / std::max(effective_latency(id), 1e-9));
      }
      chosen_index = rng.categorical(w);
    }
    const std::size_t client_id = pool[chosen_index];
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(chosen_index));
    return client_id;
  };

  std::vector<std::size_t> out;
  out.reserve(k);
  // Replacement IOUs first: clusters that lost a device to a mid-round
  // fault re-sample a stand-in from the *same* cluster before the weighted
  // draw, keeping the selection cluster-faithful under churn.
  if (!replacement_queue_.empty()) {
    for (std::size_t cluster : replacement_queue_) {
      if (out.size() >= k) break;
      if (cluster < remaining.size() && !remaining[cluster].empty()) {
        out.push_back(pick_from(remaining[cluster]));
      }
    }
    replacement_queue_.clear();
  }
  // Weighted-SRSWR over clusters: each of the k slots samples a cluster
  // independently (with replacement); a sampled cluster that has run out of
  // available devices forfeits the draw to the next-weighted cluster.
  while (out.size() < k) {
    std::size_t cluster = rng.categorical(weights);
    if (remaining[cluster].empty()) {
      // Redraw among clusters that still have devices; guaranteed to exist
      // because out.size() < k <= total_available.
      std::vector<double> fallback(weights);
      double fallback_total = 0.0;
      for (std::size_t c = 0; c < fallback.size(); ++c) {
        if (remaining[c].empty()) fallback[c] = 0.0;
        fallback_total += fallback[c];
      }
      if (fallback_total <= 0.0) {
        // Every cluster with devices left has Eq. 7 weight exactly 0 (rho=1
        // zeroes the slowest cluster): draw uniformly among them instead of
        // handing categorical() an all-zero vector. Found by the scenario
        // fuzzer (seed 163 under over-selection).
        for (std::size_t c = 0; c < fallback.size(); ++c) {
          fallback[c] = remaining[c].empty() ? 0.0 : 1.0;
        }
      }
      cluster = rng.categorical(fallback);
    }
    out.push_back(pick_from(remaining[cluster]));
  }
  return out;
}

}  // namespace haccs::core
