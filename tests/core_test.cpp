// Tests for src/core: the summary/clustering pipeline, the HACCS selector
// (Eq. 6/7 weights, Weighted-SRSWR, min-latency in-cluster pick, dropout
// substitution), a selector-driven training run, and the default model
// factory.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "src/core/haccs_selector.hpp"
#include "src/core/haccs_system.hpp"
#include "src/fl/engine.hpp"
#include "src/stats/metrics.hpp"

namespace haccs::core {
namespace {

data::SyntheticImageGenerator small_gen(std::size_t classes = 10) {
  data::SyntheticImageConfig cfg;
  cfg.classes = classes;
  cfg.height = 8;
  cfg.width = 8;
  cfg.noise_stddev = 0.25;
  return data::SyntheticImageGenerator(cfg);
}

// A federation with clear-cut groups: two clients per label mixture.
data::FederatedDataset paired_fed(std::size_t samples = 300) {
  auto gen = small_gen();
  Rng rng(3);
  return data::partition_two_per_label(gen, samples, 10, rng);
}

TEST(Pipeline, ResponseSummariesReflectLabelCounts) {
  const auto fed = paired_fed(100);
  HaccsConfig cfg;
  const auto summaries = compute_summaries(fed, cfg);
  ASSERT_EQ(summaries.size(), fed.num_clients());
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    EXPECT_EQ(summaries[i].kind, stats::SummaryKind::Response);
    EXPECT_DOUBLE_EQ(summaries[i].response.label_counts.total(),
                     static_cast<double>(fed.clients[i].train.size()));
  }
}

TEST(Pipeline, DistanceSmallWithinGroupLargeAcross) {
  const auto fed = paired_fed(400);
  HaccsConfig cfg;
  const auto summaries = compute_summaries(fed, cfg);
  const auto d = summary_distances(summaries);
  // Clients 0/1 share a mixture; clients 0/2 do not.
  EXPECT_LT(d.at(0, 1), 0.15);
  EXPECT_GT(d.at(0, 2), 0.3);
}

TEST(Pipeline, ClusterClientsRecoversGroundTruthGroups) {
  const auto fed = paired_fed(400);
  HaccsConfig cfg;  // OPTICS + auto extraction, no noise
  const auto labels = cluster_clients(fed, cfg);
  ASSERT_EQ(labels.size(), 20u);
  // Pairs must co-cluster; distinct pairs must not.
  for (std::size_t g = 0; g < 10; ++g) {
    EXPECT_EQ(labels[2 * g], labels[2 * g + 1]) << "pair " << g;
  }
  std::set<int> distinct(labels.begin(), labels.end());
  EXPECT_EQ(distinct.size(), 10u);
}

TEST(Pipeline, ConditionalSummaryAlsoRecoversGroups) {
  const auto fed = paired_fed(400);
  HaccsConfig cfg;
  cfg.summary = stats::SummaryKind::Conditional;
  const auto labels = cluster_clients(fed, cfg);
  for (std::size_t g = 0; g < 10; ++g) {
    EXPECT_EQ(labels[2 * g], labels[2 * g + 1]) << "pair " << g;
  }
}

TEST(Pipeline, DbscanAlgorithmAlsoWorks) {
  const auto fed = paired_fed(400);
  HaccsConfig cfg;
  cfg.algorithm = ClusterAlgorithm::Dbscan;
  cfg.dbscan.eps = 0.2;
  const auto labels = cluster_clients(fed, cfg);
  for (std::size_t g = 0; g < 10; ++g) {
    EXPECT_EQ(labels[2 * g], labels[2 * g + 1]);
  }
}

TEST(Pipeline, IidDataFormsOneCluster) {
  auto gen = small_gen();
  data::PartitionConfig pcfg;
  pcfg.num_clients = 12;
  pcfg.min_samples = 400;
  pcfg.max_samples = 400;
  pcfg.test_samples = 10;
  Rng rng(5);
  const auto fed = data::partition_iid(gen, pcfg, rng);
  HaccsConfig cfg;
  const auto labels = cluster_clients(fed, cfg);
  // §V-D1: "the clustering for P(y) groups all of the clients into a single
  // cluster" in the IID case.
  for (int l : labels) EXPECT_EQ(l, labels[0]);
  EXPECT_GE(labels[0], 0);
}

TEST(Pipeline, StrongNoiseDegradesClustering) {
  const auto fed = paired_fed(100);
  HaccsConfig clean_cfg;
  HaccsConfig noisy_cfg;
  noisy_cfg.privacy = stats::PrivacyConfig{0.001};  // extreme noise
  const auto clean = cluster_clients(fed, clean_cfg);
  double clean_score = stats::exact_cluster_recovery(clean, fed.true_group);
  double noisy_score_sum = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    noisy_cfg.privacy_seed = 100 + rep;
    const auto noisy = cluster_clients(fed, noisy_cfg);
    noisy_score_sum += stats::exact_cluster_recovery(noisy, fed.true_group);
  }
  EXPECT_DOUBLE_EQ(clean_score, 1.0);
  EXPECT_LT(noisy_score_sum / 5.0, 0.6);
}

TEST(Pipeline, SummaryDistanceKindMismatchThrows) {
  ClientSummary a, b;
  a.kind = stats::SummaryKind::Response;
  b.kind = stats::SummaryKind::Conditional;
  EXPECT_THROW(ClientSummary::distance(a, b), std::invalid_argument);
}

// ---- HaccsSelector ----

std::vector<fl::ClientRuntimeInfo> make_view(
    const std::vector<double>& latencies, const std::vector<double>& losses) {
  std::vector<fl::ClientRuntimeInfo> view(latencies.size());
  for (std::size_t i = 0; i < view.size(); ++i) {
    view[i].id = i;
    view[i].latency_s = latencies[i];
    view[i].num_samples = 100;
    view[i].last_loss = losses[i];
    view[i].available = true;
  }
  return view;
}

TEST(HaccsSelectorTest, NoisePointsBecomeSingletons) {
  HaccsSelector s({0, 0, -1, 1, -1}, HaccsConfig{});
  EXPECT_EQ(s.num_clusters(), 4u);  // {0,1}, {3}, {2}, {4}
  for (int label : s.cluster_of()) EXPECT_GE(label, 0);
}

TEST(HaccsSelectorTest, WeightsMatchEq7) {
  // Two clusters: {0,1} latencies 1,3 (avg 2), {2} latency 4.
  HaccsConfig cfg;
  cfg.rho = 0.5;
  HaccsSelector s({0, 0, 1}, cfg);
  const auto view = make_view({1.0, 3.0, 4.0}, {2.0, 4.0, 1.0});
  const auto w = s.cluster_weights(view);
  ASSERT_EQ(w.size(), 2u);
  // ACL_0 = 3, ACL_1 = 1; latency avg: 2 and 4, max 4.
  // tau_0 = 1 - 2/4 = 0.5, tau_1 = 0.
  // theta_0 = 0.5*0.5 + 0.5*(3/4) = 0.625; theta_1 = 0 + 0.5*(1/4) = 0.125.
  EXPECT_NEAR(w[0], 0.625, 1e-9);
  EXPECT_NEAR(w[1], 0.125, 1e-9);
}

TEST(HaccsSelectorTest, RhoOneIgnoresLoss) {
  HaccsConfig cfg;
  cfg.rho = 1.0;
  HaccsSelector s({0, 1}, cfg);
  const auto w_lowloss = s.cluster_weights(make_view({1.0, 2.0}, {0.1, 0.1}));
  const auto w_highloss = s.cluster_weights(make_view({1.0, 2.0}, {9.0, 0.1}));
  EXPECT_NEAR(w_lowloss[0], w_highloss[0], 1e-12);
  EXPECT_NEAR(w_lowloss[1], w_highloss[1], 1e-12);
}

TEST(HaccsSelectorTest, RhoZeroIgnoresLatency) {
  HaccsConfig cfg;
  cfg.rho = 0.0;
  HaccsSelector s({0, 1}, cfg);
  const auto w_a = s.cluster_weights(make_view({1.0, 50.0}, {1.0, 1.0}));
  const auto w_b = s.cluster_weights(make_view({50.0, 1.0}, {1.0, 1.0}));
  EXPECT_NEAR(w_a[0], w_b[0], 1e-12);
}

TEST(HaccsSelectorTest, RejectsBadRho) {
  HaccsConfig cfg;
  cfg.rho = 1.5;
  EXPECT_THROW(HaccsSelector({0, 1}, cfg), std::invalid_argument);
}

TEST(HaccsSelectorTest, PicksFastestAvailableInCluster) {
  // One cluster of three; the fastest must always be picked first.
  HaccsSelector s({0, 0, 0}, HaccsConfig{});
  auto view = make_view({5.0, 1.0, 3.0}, {1.0, 1.0, 1.0});
  Rng rng(7);
  const auto picks = s.select(1, view, 0, rng);
  ASSERT_EQ(picks.size(), 1u);
  EXPECT_EQ(picks[0], 1u);
  // With the fastest unavailable, the next-fastest stands in (the paper's
  // dropout-robustness mechanism).
  view[1].available = false;
  const auto picks2 = s.select(1, view, 0, rng);
  EXPECT_EQ(picks2[0], 2u);
}

TEST(HaccsSelectorTest, NeverReturnsDuplicatesOrUnavailable) {
  HaccsSelector s({0, 0, 1, 1, 2}, HaccsConfig{});
  auto view = make_view({1, 2, 3, 4, 5}, {1, 1, 1, 1, 1});
  view[0].available = false;
  Rng rng(11);
  for (int rep = 0; rep < 50; ++rep) {
    const auto picks = s.select(4, view, rep, rng);
    std::set<std::size_t> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), picks.size());
    EXPECT_EQ(unique.count(0), 0u);
  }
}

TEST(HaccsSelectorTest, CapsAtAvailableCount) {
  HaccsSelector s({0, 0, 1}, HaccsConfig{});
  auto view = make_view({1, 2, 3}, {1, 1, 1});
  view[2].available = false;
  Rng rng(13);
  const auto picks = s.select(10, view, 0, rng);
  EXPECT_EQ(picks.size(), 2u);
}

TEST(HaccsSelectorTest, AllUnavailableReturnsEmpty) {
  HaccsSelector s({0, 1}, HaccsConfig{});
  auto view = make_view({1, 2}, {1, 1});
  view[0].available = view[1].available = false;
  Rng rng(17);
  EXPECT_TRUE(s.select(2, view, 0, rng).empty());
}

TEST(HaccsSelectorTest, EntireClusterUnavailableStillFillsK) {
  // Weighted-SRSWR must forfeit draws that land on an emptied cluster and
  // still deliver k participants from the clusters that have devices left.
  HaccsSelector s({0, 0, 1, 1, 2, 2}, HaccsConfig{});
  auto view = make_view({1, 2, 3, 4, 5, 6}, {1, 1, 1, 1, 1, 1});
  view[2].available = view[3].available = false;  // cluster 1 fully out
  Rng rng(29);
  for (int rep = 0; rep < 50; ++rep) {
    const auto picks = s.select(4, view, rep, rng);
    EXPECT_EQ(picks.size(), 4u);
    for (std::size_t id : picks) {
      EXPECT_TRUE(id != 2 && id != 3) << "picked unavailable client " << id;
    }
  }
}

TEST(HaccsSelectorTest, ZeroWeightClusterStillReachableWhenOthersExhaust) {
  // Regression for the fuzzer-found crash (tools/haccs_fuzz seed 163): with
  // rho = 1, Eq. 7 gives the slowest cluster weight exactly 0. If every
  // positive-weight cluster has run out of available devices, the SRSWR
  // redraw used to hand Rng::categorical an all-zero vector and throw; it
  // must instead fall back to the zero-weight cluster.
  HaccsConfig cfg;
  cfg.rho = 1.0;
  HaccsSelector s({0, 0, 1, 1}, cfg);
  auto view = make_view({1.0, 1.0, 10.0, 10.0}, {1, 1, 1, 1});
  view[0].available = view[1].available = false;  // fast cluster gone
  Rng rng(37);
  const auto picks = s.select(2, view, 0, rng);
  ASSERT_EQ(picks.size(), 2u);
  std::set<std::size_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique, (std::set<std::size_t>{2, 3}));
}

TEST(HaccsSelectorTest, NonContiguousLabelsAreCompacted) {
  // Label gaps (possible when a caller feeds hand-built labels) must not
  // leave empty cluster slots behind: co-membership is preserved and ids
  // are renumbered densely.
  HaccsSelector s({0, 5, 5, 9}, HaccsConfig{});
  EXPECT_EQ(s.num_clusters(), 3u);
  const auto& of = s.cluster_of();
  EXPECT_EQ(of[1], of[2]);
  EXPECT_NE(of[0], of[1]);
  EXPECT_NE(of[0], of[3]);
  EXPECT_NE(of[1], of[3]);
  for (int label : of) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 3);
  }
  // And selection over the compacted clusters works end to end.
  auto view = make_view({1, 2, 3, 4}, {1, 1, 1, 1});
  Rng rng(41);
  const auto picks = s.select(3, view, 0, rng);
  EXPECT_EQ(picks.size(), 3u);
}

TEST(HaccsSelectorTest, HighWeightClusterSampledMoreOften) {
  // Cluster 0: high loss; cluster 1: low loss. rho = 0 (pure loss weighting).
  HaccsConfig cfg;
  cfg.rho = 0.0;
  HaccsSelector s({0, 0, 1, 1}, cfg);
  auto view = make_view({1, 1, 1, 1}, {4.0, 4.0, 0.5, 0.5});
  Rng rng(19);
  int cluster0 = 0;
  const int trials = 500;
  for (int t = 0; t < trials; ++t) {
    const auto picks = s.select(1, view, t, rng);
    ASSERT_EQ(picks.size(), 1u);
    if (picks[0] <= 1) ++cluster0;
  }
  // Expected share 4/(4+0.5) ~ 0.89.
  EXPECT_GT(cluster0, trials * 7 / 10);
}

TEST(HaccsSelectorTest, WeightedRandomInClusterCanPickSlower) {
  HaccsConfig cfg;
  cfg.in_cluster = InClusterPolicy::WeightedRandom;
  HaccsSelector s({0, 0}, cfg);
  auto view = make_view({1.0, 2.0}, {1.0, 1.0});
  Rng rng(23);
  std::set<std::size_t> picked;
  for (int t = 0; t < 200; ++t) {
    picked.insert(s.select(1, view, t, rng)[0]);
  }
  EXPECT_EQ(picked.size(), 2u);  // the slower device does get selected
}

TEST(HaccsSelectorTest, NameIncludesSummaryKind) {
  HaccsConfig cfg;
  EXPECT_EQ(HaccsSelector({0}, cfg).name(), "HACCS-P(y)");
  cfg.summary = stats::SummaryKind::Conditional;
  EXPECT_EQ(HaccsSelector({0}, cfg).name(), "HACCS-P(X|y)");
}

TEST(HaccsSelectorTest, ReclusterUpdatesAssignments) {
  const auto fed = paired_fed(300);
  HaccsConfig cfg;
  HaccsSelector s(fed, cfg);
  const auto before = s.cluster_of();
  s.recluster(fed);
  EXPECT_EQ(s.cluster_of(), before);  // same data => same clusters
  EXPECT_EQ(s.num_clusters(), 10u);
}

// ---- End to end ----

TEST(HaccsEndToEnd, TrainingRuns) {
  auto gen = small_gen(4);
  data::PartitionConfig pcfg;
  pcfg.num_clients = 8;
  pcfg.min_samples = 30;
  pcfg.max_samples = 40;
  pcfg.test_samples = 10;
  Rng rng(29);
  const auto fed = data::partition_k_random_labels(gen, pcfg, 2, rng);

  fl::EngineConfig ecfg;
  ecfg.rounds = 6;
  ecfg.clients_per_round = 3;
  ecfg.eval_every = 3;
  HaccsSelector selector(fed, HaccsConfig{});
  EXPECT_GT(selector.num_clusters(), 0u);
  fl::FederatedTrainer trainer(fed, default_model_factory(fed, 31), ecfg);
  const auto history = trainer.run(selector);
  EXPECT_EQ(history.records().size(), 6u);
  EXPECT_GT(history.total_time(), 0.0);
}

TEST(DefaultModelFactory, Deterministic) {
  const auto fed = paired_fed(50);
  auto factory = default_model_factory(fed, 7);
  auto m1 = factory();
  auto m2 = factory();
  EXPECT_EQ(m1.get_parameters(), m2.get_parameters());
}

TEST(DefaultModelFactory, CnnBuilds) {
  const auto fed = paired_fed(50);
  auto factory = default_model_factory(fed, 7, /*use_cnn=*/true);
  auto model = factory();
  Tensor x({2, 1, 8, 8});
  EXPECT_EQ(model.forward(x).shape(), (std::vector<std::size_t>{2, 10}));
}

}  // namespace
}  // namespace haccs::core
