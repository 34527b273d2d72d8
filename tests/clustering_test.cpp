// Tests for src/clustering: distance matrix, DBSCAN, OPTICS ordering and
// core/reachability semantics, and all three flat-cluster extractions.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "src/clustering/dbscan.hpp"
#include "src/clustering/distance_matrix.hpp"
#include "src/clustering/optics.hpp"
#include "src/common/rng.hpp"

namespace haccs::clustering {
namespace {

// Distance matrix from 1-D point positions: d(i,j) = |x_i - x_j|.
DistanceMatrix from_points(const std::vector<double>& xs) {
  return DistanceMatrix::build(xs.size(), [&](std::size_t i, std::size_t j) {
    return std::abs(xs[i] - xs[j]);
  });
}

// Canonical form of a labeling: map of cluster -> member set, dropping noise.
std::map<std::set<std::size_t>, int> partition_of(const std::vector<int>& labels) {
  std::map<int, std::set<std::size_t>> by_label;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] >= 0) by_label[labels[i]].insert(i);
  }
  std::map<std::set<std::size_t>, int> out;
  for (auto& [l, members] : by_label) out[members] = 1;
  return out;
}

TEST(DistanceMatrixTest, BuildSymmetricZeroDiagonal) {
  const auto m = from_points({0.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(m.at(2, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 2.0);
}

TEST(DistanceMatrixTest, RejectsNegativeDistance) {
  EXPECT_THROW(
      DistanceMatrix::build(2, [](std::size_t, std::size_t) { return -1.0; }),
      std::invalid_argument);
}

TEST(DistanceMatrixTest, NeighborsWithinExcludesSelf) {
  const auto m = from_points({0.0, 0.5, 5.0});
  const auto nbrs = DenseNeighborIndex(m).neighbors_within(0, 1.0);
  EXPECT_EQ(nbrs, (std::vector<std::size_t>{1}));
}

TEST(DistanceMatrixTest, KthNearest) {
  const auto m = from_points({0.0, 1.0, 2.0, 10.0});
  std::vector<double> scratch;
  EXPECT_DOUBLE_EQ(m.kth_nearest_distance(0, 1, scratch), 1.0);
  EXPECT_DOUBLE_EQ(m.kth_nearest_distance(0, 2, scratch), 2.0);
  EXPECT_DOUBLE_EQ(m.kth_nearest_distance(0, 3, scratch), 10.0);
  EXPECT_THROW(m.kth_nearest_distance(0, 0, scratch), std::invalid_argument);
  EXPECT_THROW(m.kth_nearest_distance(0, 4, scratch), std::invalid_argument);
}

// ---- DBSCAN ----

TEST(Dbscan, FindsTwoWellSeparatedClusters) {
  const auto m = from_points({0.0, 0.1, 0.2, 10.0, 10.1, 10.2});
  const auto labels = dbscan(m, {.eps = 0.5, .min_pts = 2});
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
  for (int l : labels) EXPECT_GE(l, 0);
}

TEST(Dbscan, MarksIsolatedPointsAsNoise) {
  const auto m = from_points({0.0, 0.1, 50.0});
  const auto labels = dbscan(m, {.eps = 0.5, .min_pts = 2});
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[2], -1);
}

TEST(Dbscan, MinPtsControlsCoreDefinition) {
  // A pair is a cluster at min_pts=2 but noise at min_pts=3.
  const auto m = from_points({0.0, 0.1});
  EXPECT_GE(dbscan(m, {.eps = 0.5, .min_pts = 2})[0], 0);
  EXPECT_EQ(dbscan(m, {.eps = 0.5, .min_pts = 3})[0], -1);
}

TEST(Dbscan, ChainsThroughDensityConnectedPoints) {
  // A chain where consecutive points are within eps: one cluster.
  const auto m = from_points({0.0, 0.4, 0.8, 1.2, 1.6});
  const auto labels = dbscan(m, {.eps = 0.5, .min_pts = 2});
  for (int l : labels) EXPECT_EQ(l, labels[0]);
}

TEST(Dbscan, RejectsBadConfig) {
  const auto m = from_points({0.0, 1.0});
  EXPECT_THROW(dbscan(m, {.eps = -1.0, .min_pts = 2}), std::invalid_argument);
  EXPECT_THROW(dbscan(m, {.eps = 1.0, .min_pts = 0}), std::invalid_argument);
}

// ---- OPTICS ----

TEST(Optics, OrderingVisitsEveryPointOnce) {
  const auto m = from_points({0.0, 0.1, 5.0, 5.1, 9.0});
  const auto result = optics(m, {.min_pts = 2, .max_eps = kUndefined});
  std::set<std::size_t> seen(result.ordering.begin(), result.ordering.end());
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Optics, CoreDistanceIsNearestNeighborAtMinPts2) {
  const auto m = from_points({0.0, 0.3, 1.0});
  const auto result = optics(m, {.min_pts = 2, .max_eps = kUndefined});
  EXPECT_DOUBLE_EQ(result.core_distance[0], 0.3);
  EXPECT_DOUBLE_EQ(result.core_distance[1], 0.3);
  EXPECT_DOUBLE_EQ(result.core_distance[2], 0.7);
}

TEST(Optics, ReachabilityLowWithinClusterHighAcross) {
  const auto m = from_points({0.0, 0.1, 0.2, 10.0, 10.1, 10.2});
  const auto result = optics(m, {.min_pts = 2, .max_eps = kUndefined});
  const auto plot = result.reachability_plot();
  // Exactly one finite reachability jump >= ~9.8 (the inter-cluster gap).
  int big_jumps = 0;
  for (double r : plot) {
    if (std::isfinite(r) && r > 5.0) ++big_jumps;
  }
  EXPECT_EQ(big_jumps, 1);
}

TEST(Optics, MaxEpsLimitsReachability) {
  const auto m = from_points({0.0, 0.1, 10.0, 10.1});
  const auto result = optics(m, {.min_pts = 2, .max_eps = 1.0});
  // The two pairs form separate components; each component start has
  // undefined (infinite) reachability.
  const auto plot = result.reachability_plot();
  int undefined_count = 0;
  for (double r : plot) {
    if (!std::isfinite(r)) ++undefined_count;
  }
  EXPECT_EQ(undefined_count, 2);
}

TEST(Optics, ExtractDbscanMatchesDbscan) {
  Rng rng(7);
  // Three Gaussian blobs on a line.
  std::vector<double> xs;
  for (double center : {0.0, 5.0, 11.0}) {
    for (int i = 0; i < 8; ++i) xs.push_back(center + rng.normal(0.0, 0.15));
  }
  const auto m = from_points(xs);
  const auto direct = dbscan(m, {.eps = 1.0, .min_pts = 3});
  const auto result = optics(m, {.min_pts = 3, .max_eps = kUndefined});
  const auto via_optics = extract_dbscan(result, 1.0, 3);
  EXPECT_EQ(partition_of(direct), partition_of(via_optics));
}

TEST(Optics, ExtractAutoRecoversWellSeparatedClusters) {
  const auto m = from_points({0.0, 0.1, 0.2, 10.0, 10.1, 10.2, 20.0, 20.1});
  const auto result = optics(m, {.min_pts = 2, .max_eps = kUndefined});
  const auto labels = extract_auto(result, DenseNeighborIndex(m), 2);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_EQ(labels[6], labels[7]);
  std::set<int> distinct(labels.begin(), labels.end());
  EXPECT_EQ(distinct.size(), 3u);
}

TEST(Optics, ExtractAutoSingleClusterWhenUniform) {
  // Evenly spaced points: no dominant gap => one cluster (the IID case the
  // paper describes in §V-D1).
  std::vector<double> xs;
  for (int i = 0; i < 12; ++i) xs.push_back(0.1 * i);
  const auto m = from_points(xs);
  const auto result = optics(m, {.min_pts = 2, .max_eps = kUndefined});
  const auto labels = extract_auto(result, DenseNeighborIndex(m), 2);
  for (int l : labels) EXPECT_EQ(l, labels[0]);
  EXPECT_GE(labels[0], 0);
}

TEST(Optics, ExtractAutoHandlesPairClusters) {
  // Ten pairs (the Fig. 8a layout): every pair must come out as one cluster.
  std::vector<double> xs;
  for (int g = 0; g < 10; ++g) {
    xs.push_back(g * 5.0);
    xs.push_back(g * 5.0 + 0.1);
  }
  const auto m = from_points(xs);
  const auto result = optics(m, {.min_pts = 2, .max_eps = kUndefined});
  const auto labels = extract_auto(result, DenseNeighborIndex(m), 2);
  std::set<int> distinct;
  for (int g = 0; g < 10; ++g) {
    EXPECT_EQ(labels[2 * g], labels[2 * g + 1]) << "pair " << g;
    EXPECT_GE(labels[2 * g], 0);
    distinct.insert(labels[2 * g]);
  }
  EXPECT_EQ(distinct.size(), 10u);
}

TEST(Optics, ExtractXiFindsValleys) {
  Rng rng(11);
  std::vector<double> xs;
  for (double center : {0.0, 8.0}) {
    for (int i = 0; i < 10; ++i) xs.push_back(center + rng.normal(0.0, 0.1));
  }
  const auto m = from_points(xs);
  const auto result = optics(m, {.min_pts = 3, .max_eps = kUndefined});
  const auto labels = extract_xi(result, 0.05, 3);
  // Points from the same blob that are clustered must share a label, and
  // the two blobs must never share one.
  std::set<int> blob_a, blob_b;
  for (int i = 0; i < 10; ++i) {
    if (labels[i] >= 0) blob_a.insert(labels[i]);
  }
  for (int i = 10; i < 20; ++i) {
    if (labels[i] >= 0) blob_b.insert(labels[i]);
  }
  EXPECT_FALSE(blob_a.empty());
  EXPECT_FALSE(blob_b.empty());
  for (int a : blob_a) EXPECT_EQ(blob_b.count(a), 0u);
}

TEST(Optics, ExtractXiRejectsBadXi) {
  const auto m = from_points({0.0, 1.0});
  const auto result = optics(m, {.min_pts = 2, .max_eps = kUndefined});
  EXPECT_THROW(extract_xi(result, 0.0, 2), std::invalid_argument);
  EXPECT_THROW(extract_xi(result, 1.0, 2), std::invalid_argument);
}

// ---- Degenerate inputs (the fuzzer's edge cases, pinned as unit tests) ----

TEST(Dbscan, AllIdenticalPointsFormOneCluster) {
  // Identical client summaries give an all-zero distance matrix; everything
  // must collapse into a single cluster with no noise.
  const auto m = from_points(std::vector<double>(6, 2.5));
  const auto labels = dbscan(m, {.eps = 0.3, .min_pts = 2});
  ASSERT_EQ(labels.size(), 6u);
  for (int l : labels) EXPECT_EQ(l, 0);
}

TEST(Dbscan, SinglePointIsNoiseBelowMinPts) {
  // One client can never reach min_pts = 2 neighbors: it is noise here, and
  // HaccsSelector::build_clusters remaps it to a singleton cluster.
  const auto m = from_points({1.0});
  const auto labels = dbscan(m, {.eps = 0.3, .min_pts = 2});
  ASSERT_EQ(labels.size(), 1u);
  EXPECT_EQ(labels[0], -1);
}

TEST(Optics, AllIdenticalPointsFormOneCluster) {
  const auto m = from_points(std::vector<double>(5, 0.0));
  const auto result = optics(m, {.min_pts = 2, .max_eps = kUndefined});
  ASSERT_EQ(result.ordering.size(), 5u);
  const auto labels = extract_auto(result, DenseNeighborIndex(m), 2);
  ASSERT_EQ(labels.size(), 5u);
  for (int l : labels) EXPECT_EQ(l, labels[0]);
  EXPECT_GE(labels[0], 0);
}

TEST(Optics, SinglePointDoesNotCrash) {
  const auto m = from_points({0.7});
  const auto result = optics(m, {.min_pts = 2, .max_eps = kUndefined});
  ASSERT_EQ(result.ordering.size(), 1u);
  const auto auto_labels = extract_auto(result, DenseNeighborIndex(m), 2);
  ASSERT_EQ(auto_labels.size(), 1u);
  const auto eps_labels = extract_dbscan(result, 0.5, 2);
  ASSERT_EQ(eps_labels.size(), 1u);
}

TEST(Optics, DeterministicOrdering) {
  Rng rng(13);
  std::vector<double> xs;
  for (int i = 0; i < 30; ++i) xs.push_back(rng.uniform(0.0, 10.0));
  const auto m = from_points(xs);
  const auto r1 = optics(m, {.min_pts = 3, .max_eps = kUndefined});
  const auto r2 = optics(m, {.min_pts = 3, .max_eps = kUndefined});
  EXPECT_EQ(r1.ordering, r2.ordering);
  EXPECT_EQ(r1.reachability, r2.reachability);
}

}  // namespace
}  // namespace haccs::clustering
