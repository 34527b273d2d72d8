// The HACCS summary -> privacy -> distance -> clustering pipeline
// (paper Fig. 2, steps 1-2, and Algorithm 1's "computed at the start of
// training" preamble).
//
// Exposed as free functions so the scheduler, the privacy experiments
// (Fig. 8a), and the examples can each run exactly the production path.
#pragma once

#include <span>
#include <vector>

#include "src/clustering/distance_matrix.hpp"
#include "src/clustering/neighbor_index.hpp"
#include "src/core/haccs_config.hpp"
#include "src/data/partition.hpp"
#include "src/scale/scale.hpp"

namespace haccs::core {

/// A client's reported summary — exactly one of the two kinds is populated,
/// matching `kind`.
struct ClientSummary {
  stats::SummaryKind kind = stats::SummaryKind::Response;
  stats::ResponseSummary response{1};
  stats::ConditionalSummary conditional;
  stats::QuantileSummary quantile;
  stats::QuantileSummaryConfig quantile_config;

  /// Distance between two summaries of the same kind. Response summaries
  /// use `kind` (Hellinger per §IV-A unless ablated); conditional summaries
  /// always use the mass-weighted Hellinger.
  static double distance(const ClientSummary& a, const ClientSummary& b,
                         stats::DistanceKind kind = stats::DistanceKind::Hellinger);
};

/// Computes each client's (optionally privatized) summary. This is the
/// client-side step: in a deployment each device computes and noises its own
/// summary before transmission; the per-client noise stream is forked from
/// `config.privacy_seed`.
std::vector<ClientSummary> compute_summaries(
    const data::FederatedDataset& dataset, const HaccsConfig& config);

/// Pairwise summary distances (server side).
clustering::DistanceMatrix summary_distances(
    const std::vector<ClientSummary>& summaries,
    stats::DistanceKind response_kind = stats::DistanceKind::Hellinger);

/// Pairwise distances among `members` (indices into `summaries`), in that
/// order: entry (i, j) compares summaries[members[i]] and
/// summaries[members[j]], bit-identical to summary_distances of the
/// gathered summaries.
clustering::DistanceMatrix summary_distances(
    const std::vector<ClientSummary>& summaries,
    std::span<const std::size_t> members,
    stats::DistanceKind response_kind = stats::DistanceKind::Hellinger);

/// Runs the configured clustering through the NeighborIndex seam. Labels
/// >= 0 are clusters; -1 is noise. With a DenseNeighborIndex this is
/// bit-identical to the pre-seam matrix path; sparse indexes (src/scale)
/// answer the same queries from the ANN candidate graph.
std::vector<int> cluster_index(const clustering::NeighborIndex& index,
                               const HaccsConfig& config);

/// Runs the configured clustering on a distance matrix. Labels >= 0 are
/// clusters; -1 is noise.
std::vector<int> cluster_distances(const clustering::DistanceMatrix& distances,
                                   const HaccsConfig& config);

/// Fixed-width sketch embedding of a summary (the scale pipeline's client
/// representation): the √-probability vector of the summary's distribution,
/// signed-hash-projected down to `dim` when it is wider. Sketch-space
/// L2 / √2 then estimates the summary distance — exactly, for P(y)
/// summaries with at most `dim` classes.
std::vector<float> summary_embedding(const ClientSummary& summary,
                                     std::size_t dim, std::uint64_t seed);

/// Scale path: sketch embeddings -> ANN-pruned shards -> cluster-of-clusters
/// merge (scale::cluster_sharded), with exact summary distances evaluated
/// only for candidate pairs. `stats` (optional) receives work accounting.
std::vector<int> cluster_summaries_scaled(
    const std::vector<ClientSummary>& summaries, const HaccsConfig& config,
    scale::ScaleStats* stats = nullptr);

/// Server half of the pipeline: reported summaries -> distances -> clusters.
/// Dispatches to the scale path when config.scale.enabled; otherwise runs
/// the exact O(N²) pipeline unchanged.
std::vector<int> cluster_summaries(const std::vector<ClientSummary>& summaries,
                                   const HaccsConfig& config);

/// Full pipeline: compute_summaries followed by cluster_summaries.
std::vector<int> cluster_clients(const data::FederatedDataset& dataset,
                                 const HaccsConfig& config);

}  // namespace haccs::core
