// Tests for the extension features beyond the paper's core algorithm:
// FedProx local training, alternative summary distances, distribution drift
// with dynamic re-clustering, and the gradient-direction scheduler.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/core/gradient_selector.hpp"
#include "src/core/haccs_system.hpp"
#include "src/fl/engine.hpp"
#include "src/fl/fedprox.hpp"
#include "src/select/random_selector.hpp"
#include "src/stats/distance.hpp"
#include "src/stats/metrics.hpp"

namespace haccs {
namespace {

data::SyntheticImageGenerator small_gen() {
  data::SyntheticImageConfig cfg;
  cfg.classes = 10;
  cfg.height = 8;
  cfg.width = 8;
  cfg.noise_stddev = 0.3;
  return data::SyntheticImageGenerator(cfg);
}

// ---- FedProx ----

TEST(FedProx, ZeroMuMatchesPlainLocalSgdDirection) {
  auto gen = small_gen();
  data::Dataset ds(gen.sample_shape(), 10);
  Rng fill_rng(3);
  for (std::int64_t c = 0; c < 4; ++c) gen.fill(ds, c, 20, fill_rng);

  auto make_model = [] {
    Rng rng(7);
    nn::Sequential m;
    m.add(std::make_unique<nn::Flatten>());
    m.add(std::make_unique<nn::Dense>(64, 16, rng));
    m.add(std::make_unique<nn::ReLU>());
    m.add(std::make_unique<nn::Dense>(16, 10, rng));
    return m;
  };
  auto m1 = make_model();
  auto m2 = make_model();
  const auto global = m1.get_parameters();

  fl::LocalTrainConfig plain;
  plain.epochs = 2;
  plain.sgd.learning_rate = 0.05;
  Rng r1(11);
  fl::train_local(m1, ds, plain, r1);

  fl::FedProxConfig prox;
  prox.local = plain;
  prox.mu = 0.0;
  Rng r2(11);
  fl::train_local_fedprox(m2, global, ds, prox, r2);

  const auto p1 = m1.get_parameters();
  const auto p2 = m2.get_parameters();
  for (std::size_t i = 0; i < p1.size(); i += 37) {
    EXPECT_NEAR(p1[i], p2[i], 1e-5) << "param " << i;
  }
}

TEST(FedProx, ProximalTermPullsTowardGlobal) {
  auto gen = small_gen();
  data::Dataset ds(gen.sample_shape(), 10);
  Rng fill_rng(5);
  for (std::int64_t c = 0; c < 4; ++c) gen.fill(ds, c, 20, fill_rng);

  auto make_model = [] {
    Rng rng(9);
    nn::Sequential m;
    m.add(std::make_unique<nn::Flatten>());
    m.add(std::make_unique<nn::Dense>(64, 10, rng));
    return m;
  };
  auto weak = make_model();
  auto strong = make_model();
  const auto global = weak.get_parameters();

  fl::FedProxConfig cfg;
  cfg.local.epochs = 5;
  cfg.local.sgd.learning_rate = 0.05;
  cfg.mu = 0.0;
  Rng r1(13);
  fl::train_local_fedprox(weak, global, ds, cfg, r1);
  cfg.mu = 5.0;  // heavy proximal anchor
  Rng r2(13);
  fl::train_local_fedprox(strong, global, ds, cfg, r2);

  auto drift_from_global = [&](nn::Sequential& m) {
    const auto p = m.get_parameters();
    double acc = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i) {
      const double d = p[i] - global[i];
      acc += d * d;
    }
    return std::sqrt(acc);
  };
  EXPECT_LT(drift_from_global(strong), drift_from_global(weak) * 0.8);
}

TEST(FedProx, PartialWorkRunsFewerBatches) {
  auto gen = small_gen();
  data::Dataset ds(gen.sample_shape(), 10);
  Rng fill_rng(7);
  for (std::int64_t c = 0; c < 4; ++c) gen.fill(ds, c, 32, fill_rng);

  Rng model_rng(15);
  nn::Sequential model = nn::make_mlp(64, {8}, 10, model_rng);
  nn::Sequential model2;
  {
    Rng rng2(15);
    model2 = nn::make_mlp(64, {8}, 10, rng2);
  }
  const auto global = model.get_parameters();

  fl::FedProxConfig full;
  full.local.epochs = 2;
  full.local.batch_size = 32;
  full.work_fraction = 1.0;
  Rng r1(17);
  // 128 samples / batch 32 = 4 batches per epoch x 2 epochs = 8 batches.
  // Wrap input into 4D for the MLP: use Flatten-free MLP on flat features,
  // so reshape the dataset? make_mlp expects (N, features); Dataset batches
  // are (N, C, H, W). Add a flatten layer instead:
  (void)model2;
  nn::Sequential flat_model;
  {
    Rng rng3(15);
    flat_model.add(std::make_unique<nn::Flatten>());
    flat_model.add(std::make_unique<nn::Dense>(64, 10, rng3));
  }
  nn::Sequential flat_model_half;
  {
    Rng rng4(15);
    flat_model_half.add(std::make_unique<nn::Flatten>());
    flat_model_half.add(std::make_unique<nn::Dense>(64, 10, rng4));
  }
  const auto flat_global = flat_model.get_parameters();
  const auto full_result =
      fl::train_local_fedprox(flat_model, flat_global, ds, full, r1);
  EXPECT_EQ(full_result.batches, 8u);

  fl::FedProxConfig half = full;
  half.work_fraction = 0.5;
  Rng r2(17);
  const auto half_result =
      fl::train_local_fedprox(flat_model_half, flat_global, ds, half, r2);
  EXPECT_EQ(half_result.batches, 4u);
}

TEST(FedProx, WorkFractionHelper) {
  EXPECT_DOUBLE_EQ(fl::fedprox_work_fraction(1.0), 1.0);
  EXPECT_DOUBLE_EQ(fl::fedprox_work_fraction(2.0), 0.5);
  EXPECT_DOUBLE_EQ(fl::fedprox_work_fraction(10.0), 0.3);  // floored
  EXPECT_DOUBLE_EQ(fl::fedprox_work_fraction(0.5), 1.0);   // clamped to 1
  EXPECT_THROW(fl::fedprox_work_fraction(1.0, 0.0), std::invalid_argument);
}

TEST(FedProx, RejectsBadConfig) {
  auto gen = small_gen();
  data::Dataset ds(gen.sample_shape(), 10);
  Rng fill_rng(9);
  gen.fill(ds, 0, 8, fill_rng);
  Rng model_rng(1);
  nn::Sequential model;
  model.add(std::make_unique<nn::Flatten>());
  model.add(std::make_unique<nn::Dense>(64, 10, model_rng));
  const auto global = model.get_parameters();
  Rng rng(1);

  fl::FedProxConfig bad_mu;
  bad_mu.mu = -1.0;
  EXPECT_THROW(fl::train_local_fedprox(model, global, ds, bad_mu, rng),
               std::invalid_argument);
  fl::FedProxConfig bad_work;
  bad_work.work_fraction = 0.0;
  EXPECT_THROW(fl::train_local_fedprox(model, global, ds, bad_work, rng),
               std::invalid_argument);
  fl::FedProxConfig ok;
  std::vector<float> wrong_global(global.size() + 1, 0.0f);
  EXPECT_THROW(fl::train_local_fedprox(model, wrong_global, ds, ok, rng),
               std::invalid_argument);
}

TEST(FedProx, EngineIntegrationTrains) {
  data::SyntheticImageConfig gcfg;
  gcfg.classes = 4;
  gcfg.height = 8;
  gcfg.width = 8;
  gcfg.noise_stddev = 0.3;
  data::SyntheticImageGenerator gen(gcfg);
  data::PartitionConfig pcfg;
  pcfg.num_clients = 8;
  pcfg.min_samples = 40;
  pcfg.max_samples = 60;
  pcfg.test_samples = 12;
  Rng rng(43);
  const auto fed = data::partition_majority_label(gen, pcfg, rng);

  fl::EngineConfig cfg;
  cfg.rounds = 60;
  cfg.clients_per_round = 3;
  cfg.eval_every = 10;
  cfg.local.sgd.learning_rate = 0.08;
  cfg.initial_loss = std::log(4.0);
  cfg.algorithm = fl::LocalAlgorithm::FedProx;
  cfg.fedprox_mu = 0.01;
  fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99), cfg);
  core::HaccsConfig haccs;
  haccs.initial_loss = cfg.initial_loss;
  core::HaccsSelector selector(fed, haccs);
  const auto history = trainer.run(selector);
  EXPECT_GT(history.best_accuracy(), 0.5);
}

TEST(EngineCallback, OnEpochBeginFiresEveryEpoch) {
  auto gen = small_gen();
  data::PartitionConfig pcfg;
  pcfg.num_clients = 6;
  pcfg.min_samples = 20;
  pcfg.max_samples = 30;
  pcfg.test_samples = 8;
  Rng rng(47);
  const auto fed = data::partition_majority_label(gen, pcfg, rng);

  fl::EngineConfig cfg;
  cfg.rounds = 7;
  cfg.clients_per_round = 2;
  cfg.eval_every = 7;
  std::vector<std::size_t> fired;
  cfg.on_epoch_begin = [&](std::size_t epoch) { fired.push_back(epoch); };
  fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99), cfg);
  select::RandomSelector selector;
  trainer.run(selector);
  ASSERT_EQ(fired.size(), 7u);
  for (std::size_t e = 0; e < 7; ++e) EXPECT_EQ(fired[e], e);
}

// ---- Alternative distances ----

TEST(DistanceKinds, AllKindsSatisfyBasicAxioms) {
  const std::vector<double> p = {10, 0, 5, 5};
  const std::vector<double> q = {0, 10, 5, 5};
  for (auto kind :
       {stats::DistanceKind::Hellinger, stats::DistanceKind::TotalVariation,
        stats::DistanceKind::SymmetricKl, stats::DistanceKind::JensenShannon,
        stats::DistanceKind::Cosine}) {
    const double dpq = stats::distribution_distance(p, q, kind);
    const double dqp = stats::distribution_distance(q, p, kind);
    const double dpp = stats::distribution_distance(p, p, kind);
    EXPECT_NEAR(dpp, 0.0, 1e-6) << stats::to_string(kind);
    EXPECT_NEAR(dpq, dqp, 1e-9) << stats::to_string(kind);
    EXPECT_GT(dpq, 0.0) << stats::to_string(kind);
  }
}

TEST(DistanceKinds, BoundedKindsStayInUnitInterval) {
  Rng rng(21);
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<double> p(8), q(8);
    for (auto& v : p) v = rng.uniform() < 0.3 ? 0.0 : rng.uniform(0, 100);
    for (auto& v : q) v = rng.uniform() < 0.3 ? 0.0 : rng.uniform(0, 100);
    for (auto kind :
         {stats::DistanceKind::Hellinger, stats::DistanceKind::TotalVariation,
          stats::DistanceKind::JensenShannon, stats::DistanceKind::Cosine}) {
      const double d = stats::distribution_distance(p, q, kind);
      EXPECT_GE(d, 0.0) << stats::to_string(kind);
      EXPECT_LE(d, 1.0 + 1e-9) << stats::to_string(kind);
    }
  }
}

TEST(DistanceKinds, DisjointSupportsAreMaximal) {
  const std::vector<double> p = {1, 0};
  const std::vector<double> q = {0, 1};
  EXPECT_NEAR(stats::distribution_distance(p, q, stats::DistanceKind::Hellinger),
              1.0, 1e-9);
  EXPECT_NEAR(
      stats::distribution_distance(p, q, stats::DistanceKind::TotalVariation),
      1.0, 1e-9);
  EXPECT_NEAR(
      stats::distribution_distance(p, q, stats::DistanceKind::JensenShannon),
      1.0, 1e-3);
  EXPECT_NEAR(stats::distribution_distance(p, q, stats::DistanceKind::Cosine),
              1.0, 1e-9);
}

TEST(DistanceKinds, ParseRoundTrip) {
  for (auto kind :
       {stats::DistanceKind::Hellinger, stats::DistanceKind::TotalVariation,
        stats::DistanceKind::SymmetricKl, stats::DistanceKind::JensenShannon,
        stats::DistanceKind::Cosine}) {
    EXPECT_EQ(stats::parse_distance_kind(stats::to_string(kind)), kind);
  }
  EXPECT_THROW(stats::parse_distance_kind("euclid"), std::invalid_argument);
}

TEST(DistanceKinds, ClusteringWorksUnderEveryKind) {
  auto gen = small_gen();
  Rng rng(23);
  const auto fed = data::partition_two_per_label(gen, 400, 10, rng);
  for (auto kind :
       {stats::DistanceKind::Hellinger, stats::DistanceKind::TotalVariation,
        stats::DistanceKind::JensenShannon}) {
    core::HaccsConfig cfg;
    cfg.response_distance = kind;
    const auto labels = core::cluster_clients(fed, cfg);
    EXPECT_GE(stats::exact_cluster_recovery(labels, fed.true_group), 0.9)
        << stats::to_string(kind);
  }
}

// ---- Drift + dynamic re-clustering ----

TEST(Drift, ApplyLabelDriftChangesMixtures) {
  auto gen = small_gen();
  data::PartitionConfig pcfg;
  pcfg.num_clients = 10;
  pcfg.min_samples = 50;
  pcfg.max_samples = 50;
  pcfg.test_samples = 10;
  Rng rng(25);
  auto fed = data::partition_majority_label(gen, pcfg, rng);
  const auto before = fed.true_label_distribution;

  Rng drift_rng(26);
  data::apply_label_drift(fed, gen, 0.5, drift_rng);

  std::size_t changed = 0;
  for (std::size_t i = 0; i < fed.num_clients(); ++i) {
    if (fed.true_label_distribution[i] != before[i]) ++changed;
    // Sizes preserved.
    EXPECT_EQ(fed.clients[i].train.size(), 50u);
    EXPECT_EQ(fed.clients[i].test.size(), 10u);
    // Data matches the (possibly new) mixture.
    const auto counts = fed.clients[i].train.label_counts();
    for (std::size_t c = 0; c < counts.size(); ++c) {
      if (fed.true_label_distribution[i][c] == 0.0) {
        EXPECT_EQ(counts[c], 0.0);
      }
    }
  }
  EXPECT_GT(changed, 0u);
  EXPECT_LE(changed, 5u);
}

TEST(Drift, ZeroFractionIsNoop) {
  auto gen = small_gen();
  data::PartitionConfig pcfg;
  pcfg.num_clients = 6;
  pcfg.test_samples = 5;
  Rng rng(27);
  auto fed = data::partition_majority_label(gen, pcfg, rng);
  const auto before = fed.true_label_distribution;
  Rng drift_rng(28);
  data::apply_label_drift(fed, gen, 0.0, drift_rng);
  EXPECT_EQ(fed.true_label_distribution, before);
  EXPECT_THROW(data::apply_label_drift(fed, gen, 1.5, drift_rng),
               std::invalid_argument);
}

TEST(Drift, ReclusteringTracksDriftedDistributions) {
  auto gen = small_gen();
  Rng rng(29);
  auto fed = data::partition_two_per_label(gen, 300, 10, rng);

  core::HaccsConfig cfg;
  cfg.recluster_every = 5;
  core::HaccsSelector selector(fed, cfg);
  const auto before = selector.cluster_of();

  // Drift everything, then advance past a recluster boundary via select().
  Rng drift_rng(31);
  data::apply_label_drift(fed, gen, 1.0, drift_rng);

  std::vector<fl::ClientRuntimeInfo> view(fed.num_clients());
  for (std::size_t i = 0; i < view.size(); ++i) {
    view[i].id = i;
    view[i].latency_s = 1.0 + static_cast<double>(i);
    view[i].num_samples = 300;
    view[i].last_loss = 1.0;
    view[i].available = true;
  }
  Rng sel_rng(33);
  selector.select(3, view, /*epoch=*/5, sel_rng);
  const auto after = selector.cluster_of();

  // The drifted mixtures are new random majorities: the assignment must
  // track them (clusters defined by current data, not the stale summary).
  const auto fresh = core::cluster_clients(fed, core::HaccsConfig{});
  core::HaccsSelector fresh_selector(fresh, core::HaccsConfig{});
  // Compare partitions via pairwise co-membership with the reclustered one.
  const auto scores = stats::pairwise_clustering_scores(
      after, fresh_selector.cluster_of());
  EXPECT_GT(scores.rand_index, 0.95);
  (void)before;
}

// ---- Gradient-direction selector ----

TEST(GradientSelector, ValidatesConfig) {
  core::GradientSelectorConfig bad;
  bad.sketch_dim = 0;
  EXPECT_THROW(core::GradientClusterSelector{bad}, std::invalid_argument);
  core::GradientSelectorConfig bad2;
  bad2.recluster_every = 0;
  EXPECT_THROW(core::GradientClusterSelector{bad2}, std::invalid_argument);
}

TEST(GradientSelector, SketchesAreUnitNormAndDeterministic) {
  std::vector<float> update(100);
  Rng rng(35);
  for (auto& v : update) v = static_cast<float>(rng.normal());

  const auto s0 = core::sketch_update(update, 16);
  const auto s1 = core::sketch_update(update, 16);
  ASSERT_EQ(s0.size(), 16u);
  double norm = 0.0;
  for (std::size_t d = 0; d < s0.size(); ++d) {
    EXPECT_EQ(s0[d], s1[d]);  // same update => same sketch
    norm += static_cast<double>(s0[d]) * s0[d];
  }
  EXPECT_NEAR(norm, 1.0, 1e-5);
}

TEST(GradientSelector, SimilarUpdatesCluster) {
  core::GradientSelectorConfig cfg;
  cfg.sketch_dim = 32;
  cfg.recluster_every = 1;
  cfg.eps = 0.3;
  core::GradientClusterSelector selector(cfg);

  const std::size_t n = 6;
  std::vector<fl::ClientRuntimeInfo> view(n);
  for (std::size_t i = 0; i < n; ++i) {
    view[i].id = i;
    view[i].latency_s = 1.0;
    view[i].num_samples = 10;
    view[i].last_loss = 1.0;
    view[i].available = true;
  }
  selector.initialize(view);

  // Two gradient directions; clients 0-2 share one, 3-5 the other.
  Rng rng(37);
  std::vector<float> dir_a(200), dir_b(200);
  for (auto& v : dir_a) v = static_cast<float>(rng.normal());
  for (auto& v : dir_b) v = static_cast<float>(rng.normal());
  for (std::size_t i = 0; i < n; ++i) {
    auto update = i < 3 ? dir_a : dir_b;
    // Small per-client perturbation.
    for (auto& v : update) v += static_cast<float>(rng.normal(0.0, 0.05));
    selector.report_update(i, update, 0);
  }
  Rng sel_rng(39);
  selector.select(2, view, /*epoch=*/1, sel_rng);  // triggers recluster

  const auto& labels = selector.cluster_of();
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_EQ(labels[4], labels[5]);
  EXPECT_NE(labels[0], labels[3]);
}

TEST(GradientSelector, RunsEndToEndInEngine) {
  auto gen = small_gen();
  data::PartitionConfig pcfg;
  pcfg.num_clients = 10;
  pcfg.min_samples = 30;
  pcfg.max_samples = 50;
  pcfg.test_samples = 10;
  Rng rng(41);
  const auto fed = data::partition_majority_label(gen, pcfg, rng);

  fl::EngineConfig ecfg;
  ecfg.rounds = 12;
  ecfg.clients_per_round = 4;
  ecfg.eval_every = 6;
  ecfg.local.sgd.learning_rate = 0.08;
  fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99), ecfg);

  core::GradientSelectorConfig cfg;
  cfg.recluster_every = 3;
  core::GradientClusterSelector selector(cfg);
  const auto history = trainer.run(selector);
  EXPECT_EQ(history.records().size(), 12u);
  for (const auto& r : history.records()) {
    EXPECT_FALSE(r.selected.empty());
  }
}

}  // namespace
}  // namespace haccs
