// Cross-module integration tests: full training runs exercising the whole
// stack (data -> summaries -> privacy -> clustering -> scheduling -> FedAvg
// -> simulated clock), checking the paper's qualitative claims end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/core/haccs_selector.hpp"
#include "src/core/haccs_system.hpp"
#include "src/fl/engine.hpp"
#include "src/select/oort.hpp"
#include "src/select/random_selector.hpp"
#include "src/select/tifl.hpp"

namespace haccs {
namespace {

data::SyntheticImageGenerator make_gen(std::size_t classes = 10) {
  data::SyntheticImageConfig cfg = data::SyntheticImageConfig::femnist_like(classes);
  cfg.height = 12;
  cfg.width = 12;
  cfg.noise_stddev = 0.6;
  return data::SyntheticImageGenerator(cfg);
}

data::FederatedDataset make_fed(std::size_t clients = 20,
                                std::uint64_t seed = 7) {
  auto gen = make_gen();
  data::PartitionConfig cfg;
  cfg.num_clients = clients;
  cfg.min_samples = 60;
  cfg.max_samples = 120;
  cfg.test_samples = 20;
  cfg.style_brightness_stddev = 0.2;
  cfg.style_contrast_stddev = 0.08;
  Rng rng(seed);
  return data::partition_majority_label(gen, cfg, rng);
}

fl::EngineConfig make_engine(std::size_t rounds = 80) {
  fl::EngineConfig cfg;
  cfg.rounds = rounds;
  cfg.clients_per_round = 5;
  cfg.eval_every = 5;
  cfg.local.sgd.learning_rate = 0.08;
  cfg.seed = 13;
  return cfg;
}

fl::FederatedTrainer make_trainer(const data::FederatedDataset& fed,
                                  const fl::EngineConfig& engine) {
  return fl::FederatedTrainer(fed, core::default_model_factory(fed, 99),
                              engine);
}

/// A HACCS run: a fresh selector clusters `fed`, the trainer simulates it.
fl::TrainingHistory train_haccs(fl::FederatedTrainer& trainer,
                                const data::FederatedDataset& fed,
                                const core::HaccsConfig& haccs) {
  core::HaccsSelector selector(fed, haccs);
  return trainer.run(selector);
}

TEST(Integration, FullRunIsDeterministic) {
  const auto fed = make_fed(12);
  const auto engine = make_engine(20);
  core::HaccsConfig haccs;
  auto t1 = make_trainer(fed, engine);
  auto t2 = make_trainer(fed, engine);
  const auto h1 = train_haccs(t1, fed, haccs);
  const auto h2 = train_haccs(t2, fed, haccs);
  ASSERT_EQ(h1.records().size(), h2.records().size());
  for (std::size_t i = 0; i < h1.records().size(); ++i) {
    EXPECT_EQ(h1.records()[i].selected, h2.records()[i].selected);
    EXPECT_DOUBLE_EQ(h1.records()[i].global_accuracy,
                     h2.records()[i].global_accuracy);
  }
}

TEST(Integration, HaccsBeatsRandomOnSkewedData) {
  const auto fed = make_fed(20);
  const auto engine = make_engine(100);
  core::HaccsConfig haccs;
  haccs.rho = 0.5;
  auto trainer = make_trainer(fed, engine);
  const auto haccs_history = train_haccs(trainer, fed, haccs);
  select::RandomSelector random;
  const auto random_history = trainer.run(random);

  const double target = 0.6;
  const double haccs_tta = haccs_history.time_to_accuracy(target);
  const double random_tta = random_history.time_to_accuracy(target);
  ASSERT_TRUE(std::isfinite(haccs_tta));
  ASSERT_TRUE(std::isfinite(random_tta));
  // The paper's headline: HACCS reaches the target faster. Generous margin
  // to keep the test robust to incidental tuning.
  EXPECT_LT(haccs_tta, random_tta * 1.02);
}

TEST(Integration, PrivacyPreservingRunStillTrains) {
  const auto fed = make_fed(16);
  const auto engine = make_engine(60);
  core::HaccsConfig haccs;
  haccs.privacy = stats::PrivacyConfig{0.1};
  auto trainer = make_trainer(fed, engine);
  const auto history = train_haccs(trainer, fed, haccs);
  EXPECT_GT(history.best_accuracy(), 0.5);
}

TEST(Integration, AllStrategiesReachUsefulAccuracy) {
  const auto fed = make_fed(16);
  const auto engine = make_engine(80);
  core::HaccsConfig haccs;
  auto trainer = make_trainer(fed, engine);

  select::RandomSelector random;
  select::TiflConfig tifl_cfg;
  tifl_cfg.expected_rounds = engine.rounds;
  select::TiflSelector tifl(tifl_cfg);
  select::OortSelector oort({});

  EXPECT_GT(trainer.run(random).best_accuracy(), 0.6);
  EXPECT_GT(trainer.run(tifl).best_accuracy(), 0.6);
  EXPECT_GT(trainer.run(oort).best_accuracy(), 0.6);
  EXPECT_GT(train_haccs(trainer, fed, haccs).best_accuracy(), 0.6);
}

TEST(Integration, GroupDropoutCollapsesOnlyDroppedGroups) {
  // Small-scale version of the paper's Fig. 1 finding.
  auto gen = make_gen();
  data::PartitionConfig cfg;
  cfg.num_clients = 20;
  cfg.min_samples = 80;
  cfg.max_samples = 80;
  cfg.test_samples = 20;
  Rng rng(3);
  const auto fed = data::partition_group_table(gen, cfg, rng);

  auto engine = make_engine(160);
  engine.clients_per_round = 6;

  // Keep only groups 0 {6,7} and 3 {2,3}: classes {2,3,6,7} survive, so
  // groups 1 {1,4}, 2 {5,9}, 4 {0,4}, 7 {0,9} lose BOTH of their classes
  // entirely — the paper's worst case in Fig. 1b.
  const auto schedule =
      sim::make_group_dropout(fed.true_group, {1, 2, 4, 5, 6, 7, 8, 9}, 0);
  fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                               engine);
  select::RandomSelector selector;
  trainer.run(selector, *schedule);
  const auto& acc = trainer.final_per_client_accuracy();

  double surviving = 0.0, fully_dropped = 0.0;
  std::size_t n_surv = 0, n_full = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    const int g = fed.true_group[i];
    if (g == 0 || g == 3) {
      surviving += acc[i];
      ++n_surv;
    } else if (g == 1 || g == 2 || g == 4 || g == 7) {
      fully_dropped += acc[i];
      ++n_full;
    }
  }
  surviving /= static_cast<double>(n_surv);
  fully_dropped /= static_cast<double>(n_full);
  // Participating groups learn their classes well; groups whose classes
  // vanished from training collapse (paper Fig. 1b).
  EXPECT_GT(surviving, 0.7);
  EXPECT_LT(fully_dropped, surviving - 0.25);
}

TEST(Integration, HaccsSurvivesLossOfFastestClusterMembers) {
  // Permanently drop 30% of devices; clusters keep every distribution
  // represented through surviving members, so accuracy stays high.
  const auto fed = make_fed(20);
  const auto engine = make_engine(100);
  core::HaccsSelector selector(fed, core::HaccsConfig{});
  auto trainer = make_trainer(fed, engine);
  const auto schedule =
      sim::make_permanent_random_dropout(fed.num_clients(), 6, 0, 55);
  const auto history = trainer.run(selector, *schedule);
  EXPECT_GT(history.best_accuracy(), 0.6);
}

TEST(Integration, ConditionalSummaryPipelineTrains) {
  const auto fed = make_fed(16);
  const auto engine = make_engine(60);
  core::HaccsConfig haccs;
  haccs.summary = stats::SummaryKind::Conditional;
  auto trainer = make_trainer(fed, engine);
  const auto history = train_haccs(trainer, fed, haccs);
  EXPECT_GT(history.best_accuracy(), 0.5);
}

TEST(Integration, SelectionSpreadsAcrossClusterMembersUnderJitter) {
  // With latency jitter, min-latency-in-cluster rotates among the fastest
  // members instead of hammering exactly one device (§IV-E).
  const auto fed = make_fed(20);
  auto engine = make_engine(120);
  engine.latency_jitter_sigma = 0.25;
  core::HaccsConfig haccs;
  core::HaccsSelector selector(fed, haccs);
  fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                               engine);
  const auto history = trainer.run(selector);
  const auto counts = history.selection_counts(fed.num_clients());
  std::size_t participants = 0;
  for (std::size_t c : counts) {
    if (c > 0) ++participants;
  }
  // More devices participate than the cluster count (someone other than a
  // single fixed representative got picked).
  EXPECT_GT(participants, selector.num_clusters());
}

}  // namespace
}  // namespace haccs
