#include "src/core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/common/error.hpp"
#include "src/common/mutation.hpp"
#include "src/common/threadpool.hpp"
#include "src/obs/trace.hpp"
#include "src/stats/sketch.hpp"

namespace haccs::core {

double ClientSummary::distance(const ClientSummary& a, const ClientSummary& b,
                               stats::DistanceKind kind) {
  if (a.kind != b.kind) {
    throw std::invalid_argument("ClientSummary::distance: kind mismatch");
  }
  if (a.kind == stats::SummaryKind::Response) {
    return stats::distribution_distance(a.response.label_counts.counts(),
                                        b.response.label_counts.counts(),
                                        kind);
  }
  if (a.kind == stats::SummaryKind::Quantile) {
    return stats::quantile_distance(a.quantile, b.quantile, a.quantile_config);
  }
  return stats::distance(a.conditional, b.conditional);
}

std::vector<ClientSummary> compute_summaries(
    const data::FederatedDataset& dataset, const HaccsConfig& config) {
  obs::Span span("compute_summaries", "clustering");
  // Fork every device's noise stream in client order first, so client i
  // draws exactly the noise it would in a serial loop, then summarize the
  // clients independently.
  const std::size_t n = dataset.clients.size();
  std::vector<Rng> noise;
  noise.reserve(n);
  Rng noise_root(config.privacy_seed);
  for (std::size_t i = 0; i < n; ++i) noise.push_back(noise_root.fork());
  std::vector<ClientSummary> summaries(n);
  parallel_for(0, n, [&](std::size_t i) {
    const data::Dataset& train = dataset.clients[i].train;
    ClientSummary& s = summaries[i];
    s.kind = config.summary;
    if (config.summary == stats::SummaryKind::Response) {
      s.response = stats::privatize(stats::summarize_response(train),
                                    config.privacy, noise[i]);
    } else if (config.summary == stats::SummaryKind::Quantile) {
      s.quantile_config = config.quantile;
      s.quantile = stats::privatize(
          stats::summarize_quantiles(train, config.quantile), config.quantile,
          config.privacy, noise[i]);
    } else {
      s.conditional = stats::privatize(
          stats::summarize_conditional(train, config.conditional),
          config.privacy, noise[i]);
    }
  });
  return summaries;
}

namespace {

/// Whether the pairwise Hellinger of `kind` summaries can be evaluated from
/// rows prepared once per client (stats::HellingerRows). TV, SKL, JS,
/// cosine and Q(X|y) keep the per-pair path.
bool uses_prepared_rows(stats::SummaryKind kind,
                        stats::DistanceKind response_kind) {
  if (kind == stats::SummaryKind::Conditional) return true;
  if (kind != stats::SummaryKind::Response ||
      response_kind != stats::DistanceKind::Hellinger) {
    return false;
  }
#if HACCS_MUTATIONS
  // The L2 mutation lives in stats::distribution_distance; keep it reachable.
  if (mutation::enabled(mutation::Kind::ClusterDistanceL2)) return false;
#endif
  return true;
}

}  // namespace

clustering::DistanceMatrix summary_distances(
    const std::vector<ClientSummary>& summaries,
    stats::DistanceKind response_kind) {
  if (summaries.empty()) {
    throw std::invalid_argument("summary_distances: no summaries");
  }
  const stats::SummaryKind kind = summaries.front().kind;
  const bool same_kind =
      std::all_of(summaries.begin(), summaries.end(),
                  [kind](const ClientSummary& s) { return s.kind == kind; });
  if (!same_kind || !uses_prepared_rows(kind, response_kind)) {
    return clustering::DistanceMatrix::build(
        summaries.size(), [&](std::size_t i, std::size_t j) {
          return ClientSummary::distance(summaries[i], summaries[j],
                                         response_kind);
        });
  }
  std::vector<stats::HellingerRows> rows(summaries.size());
  parallel_for(0, summaries.size(), [&](std::size_t i) {
    rows[i] = kind == stats::SummaryKind::Conditional
                  ? stats::HellingerRows(summaries[i].conditional.per_label)
                  : stats::HellingerRows(
                        summaries[i].response.label_counts.counts());
  });
  if (kind == stats::SummaryKind::Conditional) {
    return clustering::DistanceMatrix::build(
        rows.size(), [&](std::size_t i, std::size_t j) {
          return stats::weighted_hellinger_distance(rows[i], rows[j]);
        });
  }
  return clustering::DistanceMatrix::build(
      rows.size(), [&](std::size_t i, std::size_t j) {
        return stats::prepared_hellinger(rows[i].row(0), rows[j].row(0));
      });
}

namespace {

/// "Everyone similar" vs "everyone different": when extraction finds no
/// structure it returns a single all-encompassing cluster, but that is only
/// the right degeneration when the summaries actually are similar. Hellinger
/// distances carry an absolute scale (Eq. 4: bounded in [0, 1], with values
/// ≲0.2 indistinguishable from sampling noise), so a single cluster whose
/// mean pairwise distance is large means the opposite — no two clients share
/// a distribution — and each client must represent itself (the selector
/// remaps noise to singleton clusters). The paper's Table III shows exactly
/// this regime: P(X|y) summaries yielding 31 clusters over 50 devices.
constexpr double kSingleClusterMeanDistanceCap = 0.3;

std::vector<int> dissolve_implausible_single_cluster(
    std::vector<int> labels, const clustering::NeighborIndex& index) {
  int max_label = -1;
  for (int l : labels) max_label = std::max(max_label, l);
  if (max_label != 0) return labels;  // zero or 2+ clusters: keep as-is
  double sum = 0.0;
  std::size_t count = 0;
  const std::size_t n = index.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double d = index.distance(i, j);
      if (!std::isfinite(d)) continue;  // estimator-less sparse pair
      sum += d;
      ++count;
    }
  }
  if (count > 0 && sum / static_cast<double>(count) >
                       kSingleClusterMeanDistanceCap) {
    std::fill(labels.begin(), labels.end(), -1);
  }
  return labels;
}

}  // namespace

std::vector<int> cluster_index(const clustering::NeighborIndex& index,
                               const HaccsConfig& config) {
  if (config.algorithm == ClusterAlgorithm::Dbscan) {
    return clustering::dbscan(index, config.dbscan);
  }
  const auto result = clustering::optics(index, config.optics);
  std::vector<int> labels;
  switch (config.extraction) {
    case Extraction::Auto:
      labels = clustering::extract_auto(result, index, config.optics.min_pts);
      break;
    case Extraction::Xi:
      labels = clustering::extract_xi(result, config.xi, config.optics.min_pts);
      break;
    case Extraction::Dbscan:
      labels = clustering::extract_dbscan(result, config.dbscan.eps,
                                          config.optics.min_pts);
      break;
  }
  return dissolve_implausible_single_cluster(std::move(labels), index);
}

std::vector<int> cluster_distances(const clustering::DistanceMatrix& distances,
                                   const HaccsConfig& config) {
  return cluster_index(clustering::DenseNeighborIndex(distances), config);
}

std::vector<float> summary_embedding(const ClientSummary& summary,
                                     std::size_t dim, std::uint64_t seed) {
  if (summary.kind == stats::SummaryKind::Response) {
    // √-probability vector of P(y): identity-embedded (hence exact) when
    // the class count fits the budget, signed-hash-projected otherwise.
    const auto sqrt_probs =
        stats::sqrt_embedding(summary.response.label_counts.counts());
    return stats::project_embedding(sqrt_probs, dim, seed);
  }
  // Virtual feature space for structured summaries: (label, position) pairs
  // packed into one index. The per-label stride only has to exceed any
  // realistic bin/quantile count for indices to stay collision-free.
  constexpr std::uint64_t kLabelStride = 1u << 16;
  std::vector<float> out(dim, 0.0f);
  if (summary.kind == stats::SummaryKind::Conditional) {
    // Per-label √-histograms scaled by the label's √ mass share. The
    // embedding has unit norm, and pairwise L2² / 2 approximates the
    // mass-weighted average Hellinger used for exact distances.
    double total = 0.0;
    for (const auto& h : summary.conditional.per_label) total += h.total();
    for (std::size_t c = 0; c < summary.conditional.per_label.size(); ++c) {
      const auto& h = summary.conditional.per_label[c];
      if (total <= 0.0 || h.total() <= 0.0) continue;
      const double w = std::sqrt(h.total() / total);
      const auto part = stats::sqrt_embedding(h.counts());
      for (std::size_t b = 0; b < part.size(); ++b) {
        stats::project_add(out, c * kLabelStride + b, w * part[b], seed);
      }
    }
    return out;
  }
  // Quantile summaries: range-normalized quantile positions scaled by the
  // label's √ mass share, normalized by √(num quantiles) so the embedding
  // norm stays <= 1 and distances land in [0, 1] like the exact
  // quantile_distance.
  const auto& q = summary.quantile;
  double total = 0.0;
  for (double m : q.mass) total += m;
  const double range =
      std::max(summary.quantile_config.hi - summary.quantile_config.lo, 1e-12);
  for (std::size_t c = 0; c < q.per_label.size(); ++c) {
    if (q.per_label[c].empty() || total <= 0.0 || c >= q.mass.size()) continue;
    const double w = std::sqrt(q.mass[c] / total) /
                     std::sqrt(static_cast<double>(q.per_label[c].size()));
    for (std::size_t k = 0; k < q.per_label[c].size(); ++k) {
      const double pos = (q.per_label[c][k] - summary.quantile_config.lo) / range;
      stats::project_add(out, c * kLabelStride + k, w * pos, seed);
    }
  }
  return out;
}

std::vector<int> cluster_summaries_scaled(
    const std::vector<ClientSummary>& summaries, const HaccsConfig& config,
    scale::ScaleStats* stats) {
  obs::Span span("cluster_scaled", "clustering");
  if (summaries.empty()) {
    throw std::invalid_argument("cluster_summaries_scaled: no summaries");
  }
  std::vector<std::vector<float>> rows(summaries.size());
  parallel_for(0, summaries.size(), [&](std::size_t i) {
    rows[i] =
        summary_embedding(summaries[i], config.scale.sketch_dim,
                          config.scale.seed);
  });
  scale::SketchMatrix sketches(config.scale.sketch_dim);
  sketches.reserve(summaries.size());
  for (const auto& row : rows) sketches.append(row);

  const auto exact = [&summaries, &config](std::size_t i, std::size_t j) {
    return ClientSummary::distance(summaries[i], summaries[j],
                                   config.response_distance);
  };
  const auto cluster = [&config](const clustering::NeighborIndex& index) {
    return cluster_index(index, config);
  };
  return scale::cluster_sharded(sketches, exact, cluster, config.scale, stats);
}

std::vector<int> cluster_summaries(const std::vector<ClientSummary>& summaries,
                                   const HaccsConfig& config) {
  if (config.scale.enabled) {
    return cluster_summaries_scaled(summaries, config);
  }
  const auto distances = summary_distances(summaries, config.response_distance);
  return cluster_distances(distances, config);
}

std::vector<int> cluster_clients(const data::FederatedDataset& dataset,
                                 const HaccsConfig& config) {
  obs::Span span("cluster_clients", "clustering");
  return cluster_summaries(compute_summaries(dataset, config), config);
}

}  // namespace haccs::core
