// Tests for the million-client selection pipeline (DESIGN.md §5h):
// sketches (count-min, projections, Hellinger estimates), the NeighborIndex
// seam, LSH candidate pruning, sharded clustering with the
// cluster-of-clusters merge, and incremental re-clustering under churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>

#include "src/clustering/dbscan.hpp"
#include "src/clustering/neighbor_index.hpp"
#include "src/clustering/optics.hpp"
#include "src/common/rng.hpp"
#include "src/core/haccs_selector.hpp"
#include "src/scale/incremental.hpp"
#include "src/scale/scale.hpp"
#include "src/stats/sketch.hpp"

namespace haccs::scale {
namespace {

constexpr std::size_t kDim = 8;

// A sketch row: the √-probability vector of a distribution concentrated on
// class `label` with `spread` mass leaked onto the next class. Rows of the
// same label are close under the sketch Hellinger; different labels are
// nearly maximally distant.
std::vector<float> labeled_row(std::size_t label, double spread = 0.0) {
  std::vector<double> p(kDim, 0.0);
  p[label % kDim] = 1.0 - spread;
  p[(label + 1) % kDim] = spread;
  std::vector<float> out(kDim);
  for (std::size_t i = 0; i < kDim; ++i) {
    out[i] = static_cast<float>(std::sqrt(p[i]));
  }
  return out;
}

// Three well-separated planted clusters, `per` members each, with a small
// per-member spread so rows are distinct but tightly grouped.
SketchMatrix planted_clusters(std::size_t per, double max_spread = 0.02) {
  SketchMatrix m(kDim);
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < per; ++i) {
      const double spread =
          max_spread * static_cast<double>(i) / std::max<std::size_t>(per, 1);
      m.append(labeled_row(c * 3, spread));
    }
  }
  return m;
}

ExactDistanceFn exact_of(const SketchMatrix& m) {
  return [&m](std::size_t i, std::size_t j) { return sketch_distance(m, i, j); };
}

ClusterFn dbscan_fn(double eps = 0.3, std::size_t min_pts = 2) {
  return [eps, min_pts](const clustering::NeighborIndex& index) {
    return clustering::dbscan(index, {.eps = eps, .min_pts = min_pts});
  };
}

// Canonical form of a labeling: the set of non-noise member sets.
std::set<std::set<std::size_t>> partition_of(const std::vector<int>& labels) {
  std::map<int, std::set<std::size_t>> by_label;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] >= 0) by_label[labels[i]].insert(i);
  }
  std::set<std::set<std::size_t>> out;
  for (auto& [l, members] : by_label) out.insert(members);
  return out;
}

// ---- sketches ----

TEST(SketchMatrix, AppendAssignRow) {
  SketchMatrix m(3);
  EXPECT_EQ(m.rows(), 0u);
  const std::vector<float> a{1.0f, 2.0f, 3.0f};
  EXPECT_EQ(m.append(a), 0u);
  EXPECT_EQ(m.rows(), 1u);
  EXPECT_FLOAT_EQ(m.row(0)[1], 2.0f);
  const std::vector<float> b{4.0f, 5.0f, 6.0f};
  m.assign_row(0, b);
  EXPECT_FLOAT_EQ(m.row(0)[0], 4.0f);
  EXPECT_THROW(m.append(std::vector<float>{1.0f}), std::invalid_argument);
  EXPECT_THROW(m.assign_row(1, b), std::out_of_range);
  EXPECT_THROW(SketchMatrix(0), std::invalid_argument);
}

TEST(SketchHellinger, ExactWhenNativeDimensionFits) {
  // Identity embedding: class count <= sketch budget, so the sketch-space
  // estimate must equal the true Hellinger distance bit-for-float-bit.
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> p(6), q(6);
    for (auto& v : p) v = rng.uniform();
    for (auto& v : q) v = rng.uniform();
    const auto ep = stats::project_embedding(stats::sqrt_embedding(p), 16, 1);
    const auto eq = stats::project_embedding(stats::sqrt_embedding(q), 16, 1);
    const double estimate = stats::hellinger_from_embeddings(ep, eq);
    const double exact = stats::hellinger_distance(p, q);
    EXPECT_NEAR(estimate, exact, 1e-6);
  }
}

TEST(SketchHellinger, BoundedErrorUnderProjection) {
  // Native dimension 256 squeezed into 64 buckets: the signed-hash
  // projection preserves L2 in expectation, so the Hellinger estimate must
  // track the exact distance with a modest error.
  Rng rng(17);
  double worst = 0.0, total_err = 0.0;
  constexpr int kTrials = 60;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<double> p(256, 0.0), q(256, 0.0);
    for (int k = 0; k < 12; ++k) {
      p[rng.uniform_index(256)] += rng.uniform();
      q[rng.uniform_index(256)] += rng.uniform();
    }
    const auto ep =
        stats::project_embedding(stats::sqrt_embedding(p), 64, 99);
    const auto eq =
        stats::project_embedding(stats::sqrt_embedding(q), 64, 99);
    const double estimate = stats::hellinger_from_embeddings(ep, eq);
    const double exact = stats::hellinger_distance(p, q);
    const double err = std::abs(estimate - exact);
    worst = std::max(worst, err);
    total_err += err;
  }
  EXPECT_LT(total_err / kTrials, 0.10);
  EXPECT_LT(worst, 0.30);
}

TEST(SketchHellinger, ProjectAddMatchesFlatProjection) {
  // project_add over (index, value) pairs is the same signed-hash scheme as
  // project_embedding on the materialized vector.
  std::vector<double> v(100, 0.0);
  v[3] = 0.5;
  v[42] = 1.25;
  v[99] = 0.25;
  const auto flat = stats::project_embedding(v, 16, 7);
  std::vector<float> incremental(16, 0.0f);
  for (std::size_t i = 0; i < v.size(); ++i) {
    stats::project_add(incremental, i, v[i], 7);
  }
  for (std::size_t b = 0; b < 16; ++b) {
    EXPECT_FLOAT_EQ(incremental[b], flat[b]);
  }
}

// ---- NeighborIndex seam ----

TEST(NeighborIndexSeam, SparseWithAllPairsMatchesDense) {
  // A sparse graph holding every pair is informationally identical to the
  // dense matrix: OPTICS and DBSCAN must produce identical labels through
  // either implementation of the seam.
  const std::vector<double> xs{0.0, 0.1, 0.2, 0.9, 1.0, 1.1, 5.0};
  const auto matrix = clustering::DistanceMatrix::build(
      xs.size(), [&](std::size_t i, std::size_t j) {
        return std::abs(xs[i] - xs[j]);
      });
  clustering::SparseNeighborGraph graph(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    for (std::size_t j = i + 1; j < xs.size(); ++j) {
      graph.add_edge(i, j, std::abs(xs[i] - xs[j]));
    }
  }
  graph.finalize();
  const clustering::DenseNeighborIndex dense(matrix);

  EXPECT_EQ(graph.neighbors_within(0, 0.25), dense.neighbors_within(0, 0.25));
  std::vector<double> scratch;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_DOUBLE_EQ(graph.kth_nearest_distance(i, 2, scratch),
                     dense.kth_nearest_distance(i, 2, scratch));
  }

  const clustering::DbscanConfig db{.eps = 0.25, .min_pts = 2};
  EXPECT_EQ(clustering::dbscan(graph, db), clustering::dbscan(dense, db));

  const clustering::OpticsConfig op{.min_pts = 2, .max_eps = 2.0};
  const auto dense_result = clustering::optics(dense, op);
  const auto sparse_result = clustering::optics(graph, op);
  EXPECT_EQ(dense_result.ordering, sparse_result.ordering);
  EXPECT_EQ(clustering::extract_auto(dense_result, dense, 2),
            clustering::extract_auto(sparse_result, graph, 2));
}

TEST(NeighborIndexSeam, SparseFallbacksForUnknownPairs) {
  clustering::SparseNeighborGraph graph(4);
  graph.add_edge(0, 1, 0.5);
  graph.finalize();
  EXPECT_DOUBLE_EQ(graph.distance(0, 1), 0.5);
  // Unknown pair, no estimator: +inf, i.e. "not a neighbor".
  EXPECT_TRUE(std::isinf(graph.distance(0, 2)));
  // With fewer than k known neighbors the core distance is +inf (not core).
  std::vector<double> scratch;
  EXPECT_TRUE(std::isinf(graph.kth_nearest_distance(0, 2, scratch)));
  // An estimator answers the pruned pairs instead.
  graph.set_estimator([](std::size_t, std::size_t) { return 0.9; });
  EXPECT_DOUBLE_EQ(graph.distance(0, 2), 0.9);
  EXPECT_DOUBLE_EQ(graph.distance(0, 1), 0.5);  // exact edge still wins
}

// ---- sharded clustering ----

TEST(ClusterSharded, SingleShardIsIdentityMerge) {
  // One shard covering everything routes the exact distances through the
  // seam and skips the merge: labels equal clustering the dense matrix
  // directly — the degenerate-merge guarantee the oracle leans on.
  const auto sketches = planted_clusters(6);
  const auto n = sketches.rows();
  ScaleConfig config;
  config.shard_size = n + 1;
  config.exact_cutoff = n + 1;
  ScaleStats stats;
  const auto labels = cluster_sharded(sketches, exact_of(sketches),
                                      dbscan_fn(), config, &stats);

  const auto matrix = clustering::DistanceMatrix::build(
      n, [&](std::size_t i, std::size_t j) {
        return sketch_distance(sketches, i, j);
      });
  const auto direct = dbscan_fn()(clustering::DenseNeighborIndex(matrix));
  EXPECT_EQ(labels, direct);
  EXPECT_EQ(stats.shards, 1u);
  EXPECT_EQ(stats.merge_inputs, 0u);  // identity merge builds no reps
  EXPECT_EQ(stats.exact_distances, n * (n - 1) / 2);
}

TEST(ClusterSharded, ShardedMatchesExactOnSeparatedClusters) {
  // 3 planted clusters of 20 split across shards of 12: the merge must
  // reunify the per-shard fragments into the same partition the exact
  // single-shot clustering finds.
  const auto sketches = planted_clusters(20);
  ScaleConfig config;
  config.shard_size = 12;
  config.exact_cutoff = 12;
  ScaleStats stats;
  const auto sharded = cluster_sharded(sketches, exact_of(sketches),
                                       dbscan_fn(), config, &stats);
  ScaleConfig one_shot;
  one_shot.shard_size = sketches.rows() + 1;
  one_shot.exact_cutoff = sketches.rows() + 1;
  const auto exact = cluster_sharded(sketches, exact_of(sketches),
                                     dbscan_fn(), one_shot, nullptr);
  EXPECT_EQ(partition_of(sharded), partition_of(exact));
  EXPECT_EQ(stats.shards, 5u);
  EXPECT_GE(stats.merge_inputs, 3u);
}

TEST(ClusterSharded, AnnPrunedShardsStillRecoverPlantedClusters) {
  // exact_cutoff below the shard size forces the LSH candidate graph path;
  // planted structure must survive the pruning.
  const auto sketches = planted_clusters(30);
  ScaleConfig config;
  config.shard_size = 45;
  config.exact_cutoff = 8;
  ScaleStats stats;
  const auto labels = cluster_sharded(sketches, exact_of(sketches),
                                      dbscan_fn(), config, &stats);
  EXPECT_GT(stats.candidate_pairs, 0u);
  // Pruning must have evaluated fewer exact distances than all pairs.
  const std::size_t n = sketches.rows();
  EXPECT_LT(stats.exact_distances, n * (n - 1) / 2);
  // Co-membership: each planted cluster ends up together, clusters apart.
  for (std::size_t c = 0; c < 3; ++c) {
    const int label = labels[c * 30];
    EXPECT_GE(label, 0);
    for (std::size_t i = 1; i < 30; ++i) {
      EXPECT_EQ(labels[c * 30 + i], label) << "member " << i << " of " << c;
    }
  }
  EXPECT_NE(labels[0], labels[30]);
  EXPECT_NE(labels[30], labels[60]);
}

TEST(ClusterSharded, AllIdenticalSketchesFormOneCluster) {
  // Degenerate input: every client identical. All LSH keys collide into one
  // oversized bucket; the bounded successor window must still chain the
  // points into a single cluster without materializing all pairs.
  SketchMatrix sketches(kDim);
  for (int i = 0; i < 200; ++i) sketches.append(labeled_row(0));
  ScaleConfig config;
  config.shard_size = 200;
  config.exact_cutoff = 8;
  config.bucket_window = 4;
  ScaleStats stats;
  const auto labels = cluster_sharded(sketches, exact_of(sketches),
                                      dbscan_fn(), config, &stats);
  for (int label : labels) EXPECT_EQ(label, 0);
  EXPECT_LT(stats.candidate_pairs, 200u * 199u / 2u);
}

TEST(MergeShards, UnmergeableShardClustersKeepTheirMembers) {
  // Two shards, one tight cluster each, far apart: the merge's own DBSCAN
  // sees two mutually-distant representatives and calls both noise. The
  // members must keep two distinct clusters — not collapse to noise.
  SketchMatrix sketches(kDim);
  for (int i = 0; i < 4; ++i) sketches.append(labeled_row(0));
  for (int i = 0; i < 4; ++i) sketches.append(labeled_row(4));
  std::vector<ShardClustering> shards(2);
  shards[0].members = {0, 1, 2, 3};
  shards[0].labels = {0, 0, 0, 0};
  shards[1].members = {4, 5, 6, 7};
  shards[1].labels = {0, 0, 0, 0};
  ScaleConfig config;
  const auto global =
      merge_shards(sketches, shards, dbscan_fn(), config, nullptr);
  EXPECT_GE(global[0], 0);
  EXPECT_GE(global[4], 0);
  EXPECT_NE(global[0], global[4]);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(global[i], global[0]);
  for (std::size_t i = 4; i < 8; ++i) EXPECT_EQ(global[i], global[4]);
}

TEST(MergeShards, ShardNoiseStaysNoiseAndEmptyShardsIgnored) {
  SketchMatrix sketches(kDim);
  for (int i = 0; i < 5; ++i) sketches.append(labeled_row(0));
  std::vector<ShardClustering> shards(3);
  shards[0].members = {0, 1};
  shards[0].labels = {0, 0};
  // Shard 1 is empty; shard 2 has one clustered pair and one noise point.
  shards[2].members = {2, 3, 4};
  shards[2].labels = {0, 0, -1};
  ScaleConfig config;
  const auto global =
      merge_shards(sketches, shards, dbscan_fn(), config, nullptr);
  EXPECT_EQ(global[4], -1);
  EXPECT_GE(global[0], 0);
  // Identical sketches: the two shard clusters merge into one.
  EXPECT_EQ(global[0], global[2]);
}

// ---- incremental re-clustering ----

// Convenience: an incremental clusterer whose exact distance is the sketch
// distance over its own (live) rows.
struct IncrementalFixture {
  std::unique_ptr<IncrementalClusterer> inc;

  explicit IncrementalFixture(ScaleConfig config) {
    // Two-phase init: the callback needs the object's address, which is
    // stable behind the unique_ptr.
    inc = std::make_unique<IncrementalClusterer>(
        kDim,
        [this](std::size_t i, std::size_t j) {
          return sketch_distance(inc->sketches(), i, j);
        },
        dbscan_fn(), config);
  }
};

TEST(Incremental, JoinLeaveChurnMatchesFullRebuild) {
  ScaleConfig config;
  config.shard_size = 16;
  config.exact_cutoff = 16;
  config.dirty_threshold = 0.0;  // every churn batch recomputes
  IncrementalFixture fx(config);
  auto& inc = *fx.inc;

  std::vector<std::size_t> ids;
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < 15; ++i) {
      ids.push_back(inc.add_client(labeled_row(c * 3, 0.01 * (i % 5))));
    }
  }
  inc.rebuild();
  EXPECT_EQ(inc.size(), 45u);
  EXPECT_EQ(inc.cluster_count(), 3u);

  // Churn: leaves from each cluster, joins into existing clusters, and an
  // update that moves a client between clusters.
  inc.remove_client(ids[0]);
  inc.remove_client(ids[16]);
  inc.remove_client(ids[31]);
  for (std::size_t c = 0; c < 3; ++c) {
    inc.add_client(labeled_row(c * 3, 0.015));
  }
  inc.update_client(ids[1], labeled_row(3, 0.005));  // cluster 0 -> cluster 1

  ASSERT_TRUE(inc.recompute_if_dirty());
  const auto incremental_labels = inc.labels();

  // A full rebuild on the same state must agree exactly: clean shards'
  // cached clusterings are what a recompute would produce, and the merge is
  // deterministic.
  inc.rebuild();
  EXPECT_EQ(inc.labels(), incremental_labels);

  // The moved client really did land with its new cluster.
  EXPECT_EQ(inc.label_of(ids[1]), inc.label_of(ids[17]));
}

TEST(Incremental, DirtinessThresholdGatesRecompute) {
  ScaleConfig config;
  config.shard_size = 64;
  config.exact_cutoff = 64;
  config.dirty_threshold = 0.2;
  IncrementalFixture fx(config);
  auto& inc = *fx.inc;
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < 20; ++i) {
    ids.push_back(inc.add_client(labeled_row(i % 2 ? 0 : 4, 0.01)));
  }
  inc.rebuild();
  EXPECT_DOUBLE_EQ(inc.dirty_fraction(), 0.0);
  const std::size_t recomputes_before = inc.stats().shards;

  // 3 churn ops over 20-21 clients: ~15% dirty, below the 20% threshold.
  inc.add_client(labeled_row(0, 0.02));
  inc.update_client(ids[0], labeled_row(0, 0.03));
  inc.remove_client(ids[1]);
  EXPECT_LT(inc.dirty_fraction(), 0.2);
  EXPECT_FALSE(inc.recompute_if_dirty());
  EXPECT_EQ(inc.stats().shards, recomputes_before);

  // Two more ops cross the threshold.
  inc.remove_client(ids[2]);
  inc.remove_client(ids[3]);
  EXPECT_TRUE(inc.recompute_if_dirty());
  EXPECT_DOUBLE_EQ(inc.dirty_fraction(), 0.0);
}

TEST(Incremental, InterimAssignmentUsesNearestCentroidWithinRadius) {
  ScaleConfig config;
  config.assign_radius = 0.25;
  IncrementalFixture fx(config);
  auto& inc = *fx.inc;
  std::vector<std::size_t> a_ids, b_ids;
  for (std::size_t i = 0; i < 5; ++i) {
    a_ids.push_back(inc.add_client(labeled_row(0, 0.01)));
    b_ids.push_back(inc.add_client(labeled_row(4, 0.01)));
  }
  inc.rebuild();
  ASSERT_EQ(inc.cluster_count(), 2u);

  // A joiner near cluster A inherits its label immediately (no recompute).
  const std::size_t near_a = inc.add_client(labeled_row(0, 0.02));
  EXPECT_EQ(inc.label_of(near_a), inc.label_of(a_ids[0]));
  // A joiner far from every centroid opens a fresh singleton cluster.
  const std::size_t loner = inc.add_client(labeled_row(2));
  EXPECT_GE(inc.label_of(loner), static_cast<int>(2));
  EXPECT_NE(inc.label_of(loner), inc.label_of(a_ids[0]));
  EXPECT_NE(inc.label_of(loner), inc.label_of(b_ids[0]));
}

TEST(Incremental, RemovedIdsAreRecycledAndRejected) {
  ScaleConfig config;
  IncrementalFixture fx(config);
  auto& inc = *fx.inc;
  const auto a = inc.add_client(labeled_row(0));
  const auto b = inc.add_client(labeled_row(4));
  (void)b;
  inc.remove_client(a);
  EXPECT_FALSE(inc.alive(a));
  EXPECT_EQ(inc.label_of(a), -1);
  EXPECT_THROW(inc.remove_client(a), std::invalid_argument);
  EXPECT_THROW(inc.update_client(a, labeled_row(1)), std::invalid_argument);
  // The freed row id is reused.
  const auto c = inc.add_client(labeled_row(1));
  EXPECT_EQ(c, a);
  EXPECT_TRUE(inc.alive(c));
}

}  // namespace
}  // namespace haccs::scale

// ---- core integration: the scale toggle ----

namespace haccs::core {
namespace {

std::vector<ClientSummary> response_summaries(
    const std::vector<std::vector<double>>& count_rows) {
  std::vector<ClientSummary> out;
  for (const auto& counts : count_rows) {
    ClientSummary s;
    s.kind = stats::SummaryKind::Response;
    s.response = stats::ResponseSummary(counts.size());
    for (std::size_t b = 0; b < counts.size(); ++b) {
      s.response.label_counts.add_count(b, counts[b]);
    }
    out.push_back(std::move(s));
  }
  return out;
}

TEST(ScaleToggle, SingleShardScalePathMatchesExactLabels) {
  // Two label archetypes plus one outlier. The scale path with one shard
  // must reproduce the exact pipeline's labels identically — the
  // runtime-toggle guarantee, also enforced per-scenario by the fuzzer's
  // diff_scale oracle.
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 6; ++i) rows.push_back({40.0 + i, 1.0, 0.0, 0.0});
  for (int i = 0; i < 6; ++i) rows.push_back({0.0, 1.0, 30.0 + i, 5.0});
  rows.push_back({1.0, 1.0, 1.0, 50.0});
  const auto summaries = response_summaries(rows);

  HaccsConfig config;
  const auto exact = cluster_distances(
      summary_distances(summaries, config.response_distance), config);

  HaccsConfig scaled = config;
  scaled.scale.enabled = true;
  scaled.scale.shard_size = summaries.size() + 1;
  scaled.scale.exact_cutoff = summaries.size() + 1;
  scale::ScaleStats stats;
  EXPECT_EQ(cluster_summaries_scaled(summaries, scaled, &stats), exact);
  EXPECT_EQ(stats.shards, 1u);
}

TEST(ScaleToggle, ResponseEmbeddingIsExactWithinBudget) {
  const auto summaries = response_summaries(
      {{10.0, 0.0, 2.0, 0.0}, {0.0, 7.0, 0.0, 7.0}});
  const auto ea = summary_embedding(summaries[0], 16, 1);
  const auto eb = summary_embedding(summaries[1], 16, 1);
  const double estimate = stats::hellinger_from_embeddings(ea, eb);
  const double exact = ClientSummary::distance(summaries[0], summaries[1]);
  EXPECT_NEAR(estimate, exact, 1e-6);
}

TEST(ScaleToggle, SelectorReclustersIncrementallyUnderDrift) {
  // End-to-end: a selector on the scale path survives construction,
  // selection, and the recluster cadence, and its clusters keep every
  // client representable (noise remapped to singletons).
  data::SyntheticImageConfig gcfg;
  gcfg.classes = 4;
  gcfg.height = 6;
  gcfg.width = 6;
  data::SyntheticImageGenerator gen(gcfg);
  Rng rng(9);
  const auto fed = data::partition_two_per_label(gen, 200, 4, rng);

  HaccsConfig config;
  config.scale.enabled = true;
  config.scale.shard_size = 4;  // force a multi-shard merge
  config.scale.exact_cutoff = 4;
  config.scale.dirty_threshold = 0.0;
  HaccsSelector selector(fed, config);
  ASSERT_NE(selector.incremental(), nullptr);
  EXPECT_EQ(selector.cluster_of().size(), fed.num_clients());
  EXPECT_GE(selector.num_clusters(), 1u);

  // Reclustering with unchanged data is a no-op for membership.
  const auto before = selector.cluster_of();
  selector.recluster(fed);
  EXPECT_EQ(selector.cluster_of(), before);

  std::vector<fl::ClientRuntimeInfo> view(fed.num_clients());
  for (std::size_t i = 0; i < view.size(); ++i) {
    view[i].available = true;
    view[i].latency_s = 1.0 + static_cast<double>(i % 3);
    view[i].last_loss = 1.0;
  }
  Rng select_rng(4);
  const auto picked = selector.select(3, view, 0, select_rng);
  EXPECT_EQ(picked.size(), 3u);
}

}  // namespace
}  // namespace haccs::core
