#include "src/core/haccs_selector.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "src/common/error.hpp"
#include "src/common/mutation.hpp"
#include "src/net/wire.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace haccs::core {

HaccsSelector::HaccsSelector(const data::FederatedDataset& dataset,
                             HaccsConfig config)
    : config_(config), dataset_(&dataset) {
  if (config_.rho < 0.0 || config_.rho > 1.0) {
    throw std::invalid_argument("HaccsSelector: rho must be in [0, 1]");
  }
  if (config_.scale.enabled) {
    recluster_scaled(dataset, /*initial=*/true);
  } else {
    recluster_exact(dataset);
  }
}

HaccsSelector::HaccsSelector(std::vector<int> cluster_labels,
                             HaccsConfig config)
    : config_(config) {
  if (config_.rho < 0.0 || config_.rho > 1.0) {
    throw std::invalid_argument("HaccsSelector: rho must be in [0, 1]");
  }
  build_clusters(std::move(cluster_labels));
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
  const std::size_t changed = config_.scale.enabled
                                  ? recluster_scaled(dataset, /*initial=*/false)
                                  : recluster_exact(dataset);
  span.set_arg("changed_clients", static_cast<std::int64_t>(changed));
  if (changed == 0 && !config_.scale.enabled) reused.inc();
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

std::size_t HaccsSelector::recluster_exact(
    const data::FederatedDataset& dataset) {
  auto summaries = compute_summaries(dataset, config_);
  const std::size_t n = summaries.size(), cached = exact_summaries_.size();
  const std::size_t common = std::min(n, cached);
  std::size_t changed = std::max(n, cached) - common;
  for (std::size_t i = 0; i < common; ++i) {
    if (!same_summary(summaries[i], exact_summaries_[i])) ++changed;
  }
  // An empty cache also runs the pipeline, which rejects an empty population.
  if (changed > 0 || exact_summaries_.empty()) {
    exact_labels_ = cluster_summaries(summaries, config_);
    exact_summaries_ = std::move(summaries);
  }
  build_clusters(exact_labels_);
  return changed;
}

std::size_t HaccsSelector::recluster_scaled(
    const data::FederatedDataset& dataset, bool initial) {
  obs::Span span("recluster_scaled", "clustering");
  auto summaries = compute_summaries(dataset, config_);
  if (incremental_ == nullptr) {
    scale_summaries_ = std::make_shared<std::vector<ClientSummary>>();
    // The callbacks capture the summary store and config by value (not
    // `this`), so moving the selector cannot dangle them.
    auto exact = [store = scale_summaries_,
                  kind = config_.response_distance](std::size_t i,
                                                    std::size_t j) {
      return ClientSummary::distance((*store)[i], (*store)[j], kind);
    };
    auto cluster = [config = config_](const clustering::NeighborIndex& index) {
      return cluster_index(index, config);
    };
    incremental_ = std::make_unique<scale::IncrementalClusterer>(
        config_.scale.sketch_dim, std::move(exact), std::move(cluster),
        config_.scale);
  }
  auto& store = *scale_summaries_;
  const std::size_t old_n = scale_ids_.size();
  const std::size_t new_n = summaries.size();

  std::size_t changed = std::max(old_n, new_n) - std::min(old_n, new_n);

  // Surviving clients: refresh those whose sketch changed (drift). A client
  // with an identical sketch keeps its cached summary and clean shard.
  for (std::size_t i = 0; i < std::min(old_n, new_n); ++i) {
    const auto sketch = summary_embedding(summaries[i], config_.scale.sketch_dim,
                                          config_.scale.seed);
    const auto current = incremental_->sketches().row(scale_ids_[i]);
    if (!std::equal(current.begin(), current.end(), sketch.begin())) {
      store[scale_ids_[i]] = summaries[i];
      incremental_->update_client(scale_ids_[i], sketch);
      ++changed;
    }
  }
  // Leaves: the dataset shrank — retire the tail.
  for (std::size_t i = new_n; i < old_n; ++i) {
    incremental_->remove_client(scale_ids_[i]);
  }
  if (new_n < old_n) scale_ids_.resize(new_n);
  // Joins: the dataset grew.
  for (std::size_t i = old_n; i < new_n; ++i) {
    const auto sketch = summary_embedding(summaries[i], config_.scale.sketch_dim,
                                          config_.scale.seed);
    const std::size_t id = incremental_->add_client(sketch);
    if (store.size() <= id) store.resize(id + 1);
    store[id] = summaries[i];
    scale_ids_.push_back(id);
  }

  if (initial) {
    incremental_->rebuild();
  } else {
    incremental_->recompute_if_dirty();
  }

  std::vector<int> labels(new_n, -1);
  for (std::size_t i = 0; i < new_n; ++i) {
    labels[i] = incremental_->label_of(scale_ids_[i]);
  }
  build_clusters(std::move(labels));
  return changed;
}

void HaccsSelector::set_clusters(std::vector<int> cluster_labels) {
  if (!cluster_of_.empty() && cluster_labels.size() != cluster_of_.size()) {
    throw std::invalid_argument("set_clusters: arity mismatch");
  }
  build_clusters(std::move(cluster_labels));
}

void HaccsSelector::build_clusters(std::vector<int> raw_labels) {
  // Remap noise (-1) to fresh singleton cluster ids: a client whose
  // distribution matches nobody must still be representable in scheduling.
  int max_label = -1;
  for (int l : raw_labels) max_label = std::max(max_label, l);
  int next = max_label + 1;
  for (int& l : raw_labels) {
    if (l < 0) l = next++;
  }
  cluster_of_ = std::move(raw_labels);
  // Reliability penalties survive reclustering (they describe devices, not
  // clusters); replacement IOUs do not (their cluster ids are stale).
  penalty_.resize(cluster_of_.size(), 1.0);
  replacement_queue_.clear();
  clusters_.assign(static_cast<std::size_t>(next), {});
  for (std::size_t i = 0; i < cluster_of_.size(); ++i) {
    clusters_[static_cast<std::size_t>(cluster_of_[i])].push_back(i);
  }
  // Drop empty cluster slots (possible when labels are non-contiguous).
  std::erase_if(clusters_, [](const auto& c) { return c.empty(); });
  // Rebuild the id map to match the compacted cluster list.
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    for (std::size_t member : clusters_[c]) {
      cluster_of_[member] = static_cast<int>(c);
    }
  }
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
