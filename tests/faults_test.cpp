// Tests for the fault-injection layer: FaultModel determinism, update
// validation, the per-client circuit breaker, engine deadline/over-selection
// accounting, the selectors' report_failure reactions, and the bit-identity
// of the zero-cost default path (faults off, overcommit 0).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "src/core/haccs_selector.hpp"
#include "src/core/haccs_system.hpp"
#include "src/fl/async_engine.hpp"
#include "src/fl/engine.hpp"
#include "src/select/oort.hpp"
#include "src/select/random_selector.hpp"
#include "src/select/tifl.hpp"
#include "src/sim/faults.hpp"

namespace haccs {
namespace {

// ---------------------------------------------------------------------------
// FaultModel

sim::FaultModelConfig mixed_faults(std::uint64_t seed = 42) {
  sim::FaultModelConfig cfg;
  cfg.crash_rate = 0.2;
  cfg.corruption_rate = 0.1;
  cfg.straggler_rate = 0.1;
  cfg.seed = seed;
  return cfg;
}

TEST(FaultModel, DisabledYieldsNoFaults) {
  const sim::FaultModel model({});  // all rates zero
  EXPECT_FALSE(model.enabled());
  for (std::size_t client = 0; client < 20; ++client) {
    for (std::size_t epoch = 0; epoch < 20; ++epoch) {
      EXPECT_EQ(model.at(client, epoch).kind, sim::FaultKind::None);
      EXPECT_FALSE(model.flaky(client));
    }
  }
}

TEST(FaultModel, DeterministicAndOrderIndependent) {
  const sim::FaultModel a(mixed_faults());
  const sim::FaultModel b(mixed_faults());
  // Same config => identical trace, regardless of query order (a is queried
  // client-major, b epoch-major) — this is what guarantees every selection
  // strategy observes the same faults.
  std::vector<sim::FaultEvent> trace_a(30 * 30), trace_b(30 * 30);
  for (std::size_t client = 0; client < 30; ++client) {
    for (std::size_t epoch = 0; epoch < 30; ++epoch) {
      trace_a[client * 30 + epoch] = a.at(client, epoch);
    }
  }
  for (std::size_t epoch = 30; epoch-- > 0;) {
    for (std::size_t client = 30; client-- > 0;) {
      trace_b[client * 30 + epoch] = b.at(client, epoch);
    }
  }
  ASSERT_EQ(trace_a.size(), trace_b.size());
  for (std::size_t i = 0; i < trace_a.size(); ++i) {
    EXPECT_EQ(trace_a[i].kind, trace_b[i].kind);
    EXPECT_DOUBLE_EQ(trace_a[i].crash_frac, trace_b[i].crash_frac);
    EXPECT_DOUBLE_EQ(trace_a[i].latency_multiplier,
                     trace_b[i].latency_multiplier);
    EXPECT_EQ(trace_a[i].corruption, trace_b[i].corruption);
  }
  // Re-querying the same cell returns the identical event (pure function).
  const auto once = a.at(3, 7);
  const auto twice = a.at(3, 7);
  EXPECT_EQ(once.kind, twice.kind);
  EXPECT_DOUBLE_EQ(once.crash_frac, twice.crash_frac);
}

TEST(FaultModel, SeedChangesTrace) {
  const sim::FaultModel a(mixed_faults(1));
  const sim::FaultModel b(mixed_faults(2));
  std::size_t differ = 0;
  for (std::size_t client = 0; client < 20; ++client) {
    for (std::size_t epoch = 0; epoch < 20; ++epoch) {
      if (a.at(client, epoch).kind != b.at(client, epoch).kind) ++differ;
    }
  }
  EXPECT_GT(differ, 0u);
}

TEST(FaultModel, RatesApproximatelyRespected) {
  const sim::FaultModel model(mixed_faults());
  std::size_t crash = 0, corrupt = 0, straggle = 0, total = 0;
  for (std::size_t client = 0; client < 100; ++client) {
    for (std::size_t epoch = 0; epoch < 100; ++epoch) {
      ++total;
      switch (model.at(client, epoch).kind) {
        case sim::FaultKind::Crash: ++crash; break;
        case sim::FaultKind::Corruption: ++corrupt; break;
        case sim::FaultKind::Straggler: ++straggle; break;
        case sim::FaultKind::None: break;
      }
    }
  }
  const auto n = static_cast<double>(total);
  EXPECT_NEAR(static_cast<double>(crash) / n, 0.2, 0.02);
  EXPECT_NEAR(static_cast<double>(corrupt) / n, 0.1, 0.02);
  EXPECT_NEAR(static_cast<double>(straggle) / n, 0.1, 0.02);
}

TEST(FaultModel, EventFieldsWithinBounds) {
  auto cfg = mixed_faults();
  cfg.crash_frac_min = 0.2;
  cfg.crash_frac_max = 0.8;
  const sim::FaultModel model(cfg);
  for (std::size_t client = 0; client < 50; ++client) {
    for (std::size_t epoch = 0; epoch < 50; ++epoch) {
      const auto event = model.at(client, epoch);
      if (event.kind == sim::FaultKind::Crash) {
        EXPECT_GE(event.crash_frac, 0.2);
        EXPECT_LE(event.crash_frac, 0.8);
      }
      if (event.kind == sim::FaultKind::Straggler) {
        EXPECT_GE(event.latency_multiplier, sim::kStragglerScale);
        EXPECT_LE(event.latency_multiplier, cfg.straggler_cap);
      }
    }
  }
}

TEST(FaultModel, FlakyClientsCrashMore) {
  auto cfg = mixed_faults();
  cfg.crash_rate = 0.1;
  cfg.corruption_rate = 0.0;
  cfg.straggler_rate = 0.0;
  cfg.flaky_fraction = 0.3;
  cfg.flaky_crash_boost = 5.0;
  const sim::FaultModel model(cfg);
  // Flakiness is a stable per-client property...
  std::vector<bool> flaky;
  for (std::size_t client = 0; client < 200; ++client) {
    flaky.push_back(model.flaky(client));
    EXPECT_EQ(model.flaky(client), flaky.back());
  }
  EXPECT_GT(std::count(flaky.begin(), flaky.end(), true), 0);
  EXPECT_GT(std::count(flaky.begin(), flaky.end(), false), 0);
  // ...and flaky clients crash at the boosted rate.
  std::size_t crash_flaky = 0, n_flaky = 0, crash_stable = 0, n_stable = 0;
  for (std::size_t client = 0; client < 200; ++client) {
    for (std::size_t epoch = 0; epoch < 100; ++epoch) {
      const bool crashed =
          model.at(client, epoch).kind == sim::FaultKind::Crash;
      if (flaky[client]) {
        ++n_flaky;
        crash_flaky += crashed;
      } else {
        ++n_stable;
        crash_stable += crashed;
      }
    }
  }
  EXPECT_NEAR(static_cast<double>(crash_flaky) / static_cast<double>(n_flaky),
              0.5, 0.05);
  EXPECT_NEAR(
      static_cast<double>(crash_stable) / static_cast<double>(n_stable), 0.1,
      0.05);
}

TEST(FaultModel, ValidatesConfig) {
  {
    auto cfg = mixed_faults();
    cfg.crash_rate = 1.2;
    EXPECT_THROW(sim::FaultModel{cfg}, std::invalid_argument);
  }
  {
    auto cfg = mixed_faults();
    cfg.crash_rate = 0.6;
    cfg.corruption_rate = 0.3;
    cfg.straggler_rate = 0.2;  // sum > 1
    EXPECT_THROW(sim::FaultModel{cfg}, std::invalid_argument);
  }
  {
    auto cfg = mixed_faults();
    cfg.crash_frac_min = 0.9;
    cfg.crash_frac_max = 0.1;
    EXPECT_THROW(sim::FaultModel{cfg}, std::invalid_argument);
  }
  {
    auto cfg = mixed_faults();
    cfg.straggler_cap = 1.0;  // below scale
    EXPECT_THROW(sim::FaultModel{cfg}, std::invalid_argument);
  }
  {
    auto cfg = mixed_faults();
    cfg.flaky_crash_boost = 0.5;
    EXPECT_THROW(sim::FaultModel{cfg}, std::invalid_argument);
  }
}

TEST(FaultModel, CorruptionMangles) {
  sim::FaultModelConfig cfg;
  cfg.corruption_rate = 1.0;
  cfg.corruption_scale = 100.0;
  const sim::FaultModel model(cfg);

  sim::FaultEvent event;
  event.kind = sim::FaultKind::Corruption;

  std::vector<float> delta(200, 1.0f);
  event.corruption = sim::CorruptionMode::MakeNaN;
  model.corrupt(event, delta);
  EXPECT_TRUE(std::isnan(delta[0]));
  EXPECT_TRUE(std::isnan(delta[97]));
  EXPECT_FLOAT_EQ(delta[1], 1.0f);

  delta.assign(200, 1.0f);
  event.corruption = sim::CorruptionMode::MakeInf;
  model.corrupt(event, delta);
  EXPECT_TRUE(std::isinf(delta[0]));

  delta.assign(200, 1.0f);
  event.corruption = sim::CorruptionMode::ScaleExplode;
  model.corrupt(event, delta);
  EXPECT_FLOAT_EQ(delta[0], 100.0f);
  EXPECT_FLOAT_EQ(delta[199], 100.0f);

  // Non-corruption events leave the delta alone.
  delta.assign(200, 1.0f);
  event.kind = sim::FaultKind::Crash;
  model.corrupt(event, delta);
  EXPECT_FLOAT_EQ(delta[0], 1.0f);
}

// ---------------------------------------------------------------------------
// Update validation

TEST(UpdateValidation, AcceptsCleanRejectsNonFinite) {
  const std::vector<float> clean = {0.5f, -1.0f, 0.25f};
  EXPECT_TRUE(fl::update_is_valid(clean, 0.0));
  EXPECT_TRUE(fl::update_is_valid(clean, 10.0));

  std::vector<float> bad = clean;
  bad[1] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(fl::update_is_valid(bad, 0.0));

  bad = clean;
  bad[2] = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(fl::update_is_valid(bad, 0.0));
}

TEST(UpdateValidation, EnforcesNormBound) {
  const std::vector<float> delta = {3.0f, 4.0f};  // L2 norm 5
  EXPECT_TRUE(fl::update_is_valid(delta, 0.0));   // 0 = unbounded
  EXPECT_TRUE(fl::update_is_valid(delta, 5.0));
  EXPECT_FALSE(fl::update_is_valid(delta, 4.9));
}

// ---------------------------------------------------------------------------
// Circuit breaker

TEST(CircuitBreaker, OpensAfterConsecutiveFailuresAndRecovers) {
  sim::CircuitBreaker::Config cfg;
  cfg.failure_threshold = 3;
  cfg.base_cooldown = 4;
  sim::CircuitBreaker breaker(cfg);

  EXPECT_EQ(breaker.state(0), sim::CircuitBreaker::State::Closed);
  breaker.record_failure(0);
  breaker.record_failure(1);
  EXPECT_EQ(breaker.state(2), sim::CircuitBreaker::State::Closed);
  EXPECT_EQ(breaker.consecutive_failures(), 2u);

  // A success in between resets the consecutive count.
  breaker.record_success();
  EXPECT_EQ(breaker.consecutive_failures(), 0u);

  breaker.record_failure(3);
  breaker.record_failure(4);
  breaker.record_failure(5);  // third consecutive: trips
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_EQ(breaker.open_until(), 5u + 1u + 4u);
  for (std::size_t epoch = 6; epoch < 10; ++epoch) {
    EXPECT_EQ(breaker.state(epoch), sim::CircuitBreaker::State::Open);
    EXPECT_FALSE(breaker.allows(epoch));
  }
  // Cooldown elapsed: half-open, one probe allowed.
  EXPECT_EQ(breaker.state(10), sim::CircuitBreaker::State::HalfOpen);
  EXPECT_TRUE(breaker.allows(10));

  // Successful probe closes the breaker.
  breaker.record_success();
  EXPECT_EQ(breaker.state(10), sim::CircuitBreaker::State::Closed);
}

TEST(CircuitBreaker, FailedProbeDoublesCooldown) {
  sim::CircuitBreaker::Config cfg;
  cfg.failure_threshold = 2;
  cfg.base_cooldown = 4;
  cfg.max_cooldown = 16;
  sim::CircuitBreaker breaker(cfg);

  breaker.record_failure(0);
  breaker.record_failure(1);  // trip #1: cooldown 4, open until epoch 6
  EXPECT_EQ(breaker.open_until(), 6u);
  ASSERT_EQ(breaker.state(6), sim::CircuitBreaker::State::HalfOpen);

  breaker.record_failure(6);  // failed probe: trip #2, cooldown 8
  EXPECT_EQ(breaker.trips(), 2u);
  EXPECT_EQ(breaker.open_until(), 6u + 1u + 8u);
  ASSERT_EQ(breaker.state(15), sim::CircuitBreaker::State::HalfOpen);

  breaker.record_failure(15);  // trip #3 would be 16 = max_cooldown
  EXPECT_EQ(breaker.open_until(), 15u + 1u + 16u);

  breaker.record_failure(32);  // trip #4: still capped at max_cooldown
  EXPECT_EQ(breaker.open_until(), 32u + 1u + 16u);

  // A success closes it but keeps the trip count: the next trip pays the
  // capped cooldown immediately.
  breaker.record_success();
  EXPECT_EQ(breaker.state(40), sim::CircuitBreaker::State::Closed);
  EXPECT_EQ(breaker.trips(), 4u);
}

TEST(CircuitBreaker, ValidatesConfig) {
  {
    sim::CircuitBreaker::Config cfg;
    cfg.failure_threshold = 0;
    EXPECT_THROW(sim::CircuitBreaker{cfg}, std::invalid_argument);
  }
  {
    sim::CircuitBreaker::Config cfg;
    cfg.base_cooldown = 8;
    cfg.max_cooldown = 4;
    EXPECT_THROW(sim::CircuitBreaker{cfg}, std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// Engine integration

data::FederatedDataset make_fed(std::size_t classes = 10,
                                std::size_t clients = 12) {
  data::SyntheticImageConfig cfg =
      data::SyntheticImageConfig::femnist_like(classes);
  cfg.height = 12;
  cfg.width = 12;
  cfg.noise_stddev = 0.6;
  data::SyntheticImageGenerator gen(cfg);
  data::PartitionConfig pcfg;
  pcfg.num_clients = clients;
  pcfg.min_samples = 60;
  pcfg.max_samples = 120;
  pcfg.test_samples = 20;
  pcfg.style_brightness_stddev = 0.2;
  pcfg.style_contrast_stddev = 0.08;
  Rng rng(7);
  return data::partition_majority_label(gen, pcfg, rng);
}

fl::EngineConfig make_engine(std::size_t rounds = 20) {
  fl::EngineConfig cfg;
  cfg.rounds = rounds;
  cfg.clients_per_round = 5;
  cfg.eval_every = 5;
  cfg.local.sgd.learning_rate = 0.08;
  cfg.seed = 13;
  return cfg;
}

struct PinnedRecord {
  double sim_time_s;
  double global_accuracy;
  double global_loss;
  std::vector<std::size_t> selected;
};

// Seeded run captured from the pre-fault-layer engine (commit 23f7f8d's
// tree) with the exact fixture above: the zero-cost-default acceptance
// criterion. Any drift in these doubles means the clean path is no longer
// bit-identical to the pre-PR engine.
const std::vector<PinnedRecord> kPinnedSync = {
    {2.4592208448284709, 0.17500000000000002, 2.6684952057084916, {0, 3, 6, 5, 8}},
    {4.1218140802358345, 0.17500000000000002, 2.6684952057084916, {2, 0, 6, 1, 5}},
    {5.2281820182925891, 0.17500000000000002, 2.6684952057084916, {4, 0, 11, 1, 8}},
    {7.6106378787327129, 0.17500000000000002, 2.6684952057084916, {0, 11, 5, 4, 6}},
    {8.9129245903296592, 0.17500000000000002, 2.6684952057084916, {3, 8, 11, 2, 1}},
    {10.835646134617638, 0.25416666666666665, 2.2498596636302448, {4, 0, 2, 6, 3}},
    {12.225081764077657, 0.25416666666666665, 2.2498596636302448, {6, 9, 5, 0, 8}},
    {13.842845758635269, 0.25416666666666665, 2.2498596636302448, {4, 9, 2, 3, 7}},
    {15.646498338221608, 0.25416666666666665, 2.2498596636302448, {9, 8, 3, 6, 10}},
    {17.360196146113068, 0.25416666666666665, 2.2498596636302448, {11, 2, 3, 1, 5}},
    {18.449487423302728, 0.26250000000000001, 1.9809220097751943, {11, 7, 10, 8, 5}},
    {19.714382216685308, 0.26250000000000001, 1.9809220097751943, {3, 8, 9, 0, 5}},
    {20.97769517768528, 0.26250000000000001, 1.9809220097751943, {0, 9, 1, 11, 5}},
    {22.536000487897368, 0.26250000000000001, 1.9809220097751943, {0, 10, 1, 11, 8}},
    {24.174834736903492, 0.26250000000000001, 1.9809220097751943, {7, 1, 10, 4, 11}},
    {25.861384637227896, 0.32916666666666666, 1.8979171452788226, {10, 8, 5, 9, 2}},
    {27.28619365285531, 0.32916666666666666, 1.8979171452788226, {6, 3, 11, 9, 7}},
    {28.975908908901115, 0.32916666666666666, 1.8979171452788226, {3, 0, 9, 5, 6}},
    {31.494633286698477, 0.32916666666666666, 1.8979171452788226, {9, 5, 3, 0, 6}},
    {32.610126703203107, 0.32916666666666666, 1.9039872757712126, {9, 1, 3, 5, 8}},
};

const std::vector<PinnedRecord> kPinnedAsync = {
    {0.73081671270111603, 0.1875, 2.5877432733579115, {4, 3}},
    {1.2560215242516954, 0.1875, 2.5877432733579115, {0, 5}},
    {1.7511328722613861, 0.1875, 2.5877432733579115, {8, 4}},
    {2.1882251717293606, 0.1875, 2.5877432733579115, {4, 6}},
    {2.5357691713031674, 0.22083333333333333, 2.7293905414824757, {8, 1}},
    {3.1535135166942774, 0.22083333333333333, 2.7293905414824757, {3, 11}},
    {3.5284844540398814, 0.22083333333333333, 2.7293905414824757, {10, 5}},
    {4.1539244261306809, 0.22083333333333333, 2.7293905414824757, {1, 0}},
    {4.6345757493663999, 0.24583333333333332, 2.7579436064973719, {10, 2}},
    {4.8256434022444967, 0.24583333333333332, 2.7579436064973719, {5, 7}},
    {5.9800651487831811, 0.24583333333333332, 2.7579436064973719, {11, 10}},
    {6.1461499223990188, 0.27916666666666662, 2.1563139252308092, {1, 9}},
};

TEST(EngineFaults, DefaultPathBitIdenticalToPrePRPinnedRun) {
  // The pinned doubles were captured before the blocked/packed compute
  // kernels landed. Those kernels reassociate float accumulation (covered by
  // their own tolerance-bounded equivalence tests); the reference backend
  // retains the seed kernels' exact accumulation order, so it is the path
  // that must stay bit-identical to the pre-PR engine.
  ops::set_kernel_backend(ops::KernelBackend::kReference);
  const auto fed = make_fed();
  {
    fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                                 make_engine());
    select::RandomSelector selector;
    const auto history = trainer.run(selector);
    ASSERT_EQ(history.records().size(), kPinnedSync.size());
    for (std::size_t i = 0; i < kPinnedSync.size(); ++i) {
      const auto& r = history.records()[i];
      // Exact (bitwise) double equality on purpose: the fault layer must be
      // a zero-cost abstraction when disabled.
      EXPECT_EQ(r.sim_time_s, kPinnedSync[i].sim_time_s) << "round " << i;
      EXPECT_EQ(r.global_accuracy, kPinnedSync[i].global_accuracy)
          << "round " << i;
      EXPECT_EQ(r.global_loss, kPinnedSync[i].global_loss) << "round " << i;
      EXPECT_EQ(r.selected, kPinnedSync[i].selected) << "round " << i;
      EXPECT_EQ(r.dispatched, r.selected.size());
      EXPECT_EQ(r.wasted(), 0u);
      EXPECT_DOUBLE_EQ(r.deadline_s, 0.0);
    }
  }
  {
    fl::AsyncEngineConfig async;
    async.aggregations = 12;
    async.max_in_flight = 4;
    async.buffer_size = 2;
    async.eval_every = 4;
    async.local.sgd.learning_rate = 0.08;
    async.seed = 13;
    fl::AsyncFederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                                      async);
    select::RandomSelector selector;
    const auto history = trainer.run(selector);
    ASSERT_EQ(history.records().size(), kPinnedAsync.size());
    for (std::size_t i = 0; i < kPinnedAsync.size(); ++i) {
      const auto& r = history.records()[i];
      EXPECT_EQ(r.sim_time_s, kPinnedAsync[i].sim_time_s) << "record " << i;
      EXPECT_EQ(r.global_accuracy, kPinnedAsync[i].global_accuracy)
          << "record " << i;
      EXPECT_EQ(r.global_loss, kPinnedAsync[i].global_loss) << "record " << i;
      EXPECT_EQ(r.selected, kPinnedAsync[i].selected) << "record " << i;
      EXPECT_EQ(r.wasted(), 0u);
    }
  }
  ops::set_kernel_backend(ops::KernelBackend::kOptimized);
}


fl::EngineConfig make_fault_path_engine() {
  auto engine = make_engine(24);
  engine.faults.crash_rate = 0.15;
  engine.faults.flaky_fraction = 0.25;
  engine.faults.flaky_crash_boost = 5.0;
  engine.faults.corruption_rate = 0.12;
  engine.faults.straggler_rate = 0.15;
  engine.faults.seed = 77;
  engine.overcommit = 0.6;
  engine.deadline_quantile = 0.8;
  engine.max_update_norm = 50.0;
  return engine;
}

fl::AsyncEngineConfig make_fault_path_async() {
  fl::AsyncEngineConfig async;
  async.aggregations = 14;
  async.max_in_flight = 4;
  async.buffer_size = 2;
  async.eval_every = 4;
  async.local.sgd.learning_rate = 0.08;
  async.seed = 13;
  async.faults.crash_rate = 0.2;
  async.faults.corruption_rate = 0.15;
  async.faults.seed = 78;
  async.max_update_norm = 50.0;
  return async;
}

struct PinnedFaultRecord {
  double sim_time_s;
  double global_accuracy;
  double global_loss;
  std::vector<std::size_t> selected, crashed, late, rejected;
  std::size_t dispatched;
  std::size_t downlink_bytes, uplink_bytes;
};

// Captured from the engine before its failure accounting was folded into
// one settlement path, with the fixtures above: crashes (flaky-boosted,
// enough to trip breakers), stragglers, corruption, a deadline, overcommit
// and a norm bound under HACCS, whose penalties and replacement draws make
// selection depend on the exact report_failure/report_result sequence.
const std::vector<PinnedFaultRecord> kPinnedFaultSync = {
    {1.1076778457477938, 0.19166666666666668, 2.5199917247822463, {2, 4, 9, 8}, {11, 1}, {10}, {0}, 8, 318648u, 198985u},
    {2.7702710811551579, 0.19166666666666668, 2.5199917247822463, {11, 10}, {1, 3}, {0, 4}, {2, 8}, 8, 318648u, 159188u},
    {4.0412691919502404, 0.19166666666666668, 2.5199917247822463, {2, 8, 4}, {7, 5}, {0, 1}, {3}, 8, 318648u, 159188u},
    {5.2002341562943188, 0.19166666666666668, 2.5199917247822463, {4, 11}, {0, 1, 3, 5}, {7, 9}, {}, 8, 318648u, 79594u},
    {6.1584601324421087, 0.19166666666666668, 2.5199917247822463, {8, 11, 4}, {0, 5}, {9, 2}, {7}, 8, 318648u, 159188u},
    {7.6876608374795898, 0.27083333333333331, 2.5638743304450502, {11, 8, 4}, {}, {10, 6}, {7, 9, 2}, 8, 318648u, 238782u},
    {9.0770964669396079, 0.27083333333333331, 2.5638743304450502, {9, 8, 4}, {}, {10, 6}, {2, 11}, 7, 278817u, 198985u},
    {10.291280963458698, 0.27083333333333331, 2.5638743304450502, {10, 11, 8, 4, 9}, {}, {2, 6}, {}, 7, 278817u, 198985u},
    {11.417357209061041, 0.27083333333333331, 2.5638743304450502, {11, 4, 9}, {8, 3}, {2, 6}, {10}, 8, 318648u, 159188u},
    {12.813374735908571, 0.27083333333333331, 2.5638743304450502, {2, 10, 11}, {8, 5, 0}, {6, 9}, {}, 8, 318648u, 119391u},
    {14.303721747001163, 0.29583333333333334, 2.2376089356305133, {8, 11, 10}, {2, 7, 1}, {6, 9}, {}, 8, 318648u, 119391u},
    {15.697296787234707, 0.29583333333333334, 2.2376089356305133, {9, 2, 4, 11}, {}, {6, 8}, {10}, 7, 278817u, 198985u},
    {16.978501630307299, 0.29583333333333334, 2.2376089356305133, {4, 9}, {8, 2}, {6, 11}, {10}, 7, 278817u, 119391u},
    {18.537564475318533, 0.29583333333333334, 2.2376089356305133, {10, 11, 4}, {8, 2}, {6, 9}, {}, 7, 278817u, 119391u},
    {19.825669380381534, 0.29583333333333334, 2.2376089356305133, {9, 4, 11, 10}, {8}, {6, 2}, {}, 7, 278817u, 159188u},
    {27.697372623493582, 0.32500000000000001, 2.1591339558874525, {2, 9, 11}, {10}, {6}, {4}, 6, 238986u, 159188u},
    {29.200214802446919, 0.32500000000000001, 2.1591339558874525, {10, 2, 9}, {}, {6}, {4, 11}, 6, 238986u, 198985u},
    {30.588544594777105, 0.32500000000000001, 2.1591339558874525, {11, 3, 2}, {4, 9}, {6, 10}, {}, 7, 278817u, 119391u},
    {32.167106319332063, 0.32500000000000001, 2.1591339558874525, {10, 11}, {9, 0, 5, 2}, {6}, {3}, 8, 318648u, 119391u},
    {35.287645476373612, 0.32500000000000001, 2.1591339558874525, {6, 9, 3, 2, 8, 11}, {}, {7, 1}, {}, 8, 318648u, 238782u},
    {36.592428533946673, 0.33333333333333331, 2.0471258727985515, {11, 2, 9, 3}, {7, 6}, {1}, {8}, 8, 318648u, 198985u},
    {37.737249828190507, 0.33333333333333331, 2.0471258727985515, {8, 3, 10}, {1, 2}, {6}, {9, 11}, 8, 318648u, 198985u},
    {39.144342032101306, 0.33333333333333331, 2.0471258727985515, {11, 8, 3, 4}, {2}, {6, 9}, {10}, 8, 318648u, 198985u},
    {40.754515649953269, 0.33333333333333331, 1.9600534094573236, {2, 3, 11}, {8}, {6, 9}, {10, 4}, 8, 318648u, 198985u},
};

const std::vector<PinnedFaultRecord> kPinnedFaultAsync = {
    {0.73081671270111603, 0.11666666666666668, 2.9219728884938427, {5, 3}, {}, {}, {}, 2, 0u, 0u},
    {1.055740101180445, 0.11666666666666668, 2.9219728884938427, {11, 1}, {}, {}, {}, 2, 0u, 0u},
    {1.7821832102846151, 0.11666666666666668, 2.9219728884938427, {7, 10}, {}, {}, {}, 2, 0u, 0u},
    {2.1884105889359708, 0.11666666666666668, 2.9219728884938427, {1, 4}, {}, {}, {}, 2, 0u, 0u},
    {2.8383201237953157, 0.22500000000000001, 2.6202555585661358, {11, 3}, {}, {}, {2}, 3, 0u, 0u},
    {3.5341245665784156, 0.22500000000000001, 2.6202555585661358, {2, 4}, {5, 0, 5}, {}, {0}, 6, 0u, 0u},
    {4.299797184580159, 0.22500000000000001, 2.6202555585661358, {7, 8}, {0, 5}, {}, {}, 4, 0u, 0u},
    {5.0240337668543127, 0.22500000000000001, 2.6202555585661358, {5, 3}, {}, {}, {}, 2, 0u, 0u},
    {5.0506882765307051, 0.20000000000000004, 2.5054925024100361, {7, 0}, {}, {}, {}, 2, 0u, 0u},
    {5.9374395533500275, 0.20000000000000004, 2.5054925024100361, {8, 3}, {4, 4}, {}, {}, 4, 0u, 0u},
    {6.650268427296175, 0.20000000000000004, 2.5054925024100361, {10, 11}, {4}, {}, {}, 3, 0u, 0u},
    {7.1061625672646187, 0.20000000000000004, 2.5054925024100361, {4, 0}, {}, {}, {}, 2, 0u, 0u},
    {7.3221409337600063, 0.26250000000000001, 2.3229073082957146, {5, 11}, {}, {}, {}, 2, 0u, 0u},
    {7.9198133408942804, 0.26250000000000001, 2.2356074314265708, {7, 0}, {}, {}, {5}, 3, 0u, 0u},
};

void expect_pinned(const fl::TrainingHistory& history,
                   const std::vector<PinnedFaultRecord>& pinned) {
  ASSERT_EQ(history.records().size(), pinned.size());
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    const auto& r = history.records()[i];
    const auto& p = pinned[i];
    EXPECT_EQ(r.sim_time_s, p.sim_time_s) << "record " << i;
    EXPECT_EQ(r.global_accuracy, p.global_accuracy) << "record " << i;
    EXPECT_EQ(r.global_loss, p.global_loss) << "record " << i;
    EXPECT_EQ(r.selected, p.selected) << "record " << i;
    EXPECT_EQ(r.crashed, p.crashed) << "record " << i;
    EXPECT_EQ(r.late, p.late) << "record " << i;
    EXPECT_EQ(r.rejected, p.rejected) << "record " << i;
    EXPECT_EQ(r.dispatched, p.dispatched) << "record " << i;
    EXPECT_EQ(r.downlink_bytes, p.downlink_bytes) << "record " << i;
    EXPECT_EQ(r.uplink_bytes, p.uplink_bytes) << "record " << i;
  }
}

TEST(EngineFaults, FaultPathBitIdenticalToPinnedRun) {
  // Reference kernels, as in the default-path pin: the values must not
  // depend on the host's SIMD path.
  ops::set_kernel_backend(ops::KernelBackend::kReference);
  const auto fed = make_fed();
  core::HaccsConfig haccs;
  haccs.rho = 0.5;
  {
    fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                                 make_fault_path_engine());
    core::HaccsSelector selector(fed, haccs);
    const auto history = trainer.run(selector);
    expect_pinned(history, kPinnedFaultSync);
    // The fixture must reach the breaker: some client fails (crash or
    // rejected update) three dispatches in a row, the default threshold.
    std::vector<std::size_t> streak(fed.clients.size(), 0);
    std::size_t longest = 0;
    for (const auto& r : history.records()) {
      for (std::size_t id : r.selected) streak[id] = 0;
      for (const auto* failed : {&r.crashed, &r.rejected}) {
        for (std::size_t id : *failed) {
          longest = std::max(longest, ++streak[id]);
        }
      }
    }
    EXPECT_GE(longest, 3u);
  }
  {
    fl::AsyncFederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                                      make_fault_path_async());
    core::HaccsSelector selector(fed, haccs);
    expect_pinned(trainer.run(selector), kPinnedFaultAsync);
  }
  ops::set_kernel_backend(ops::KernelBackend::kOptimized);
}

TEST(EngineFaults, RoundRecordAccountingIsConsistent) {
  const auto fed = make_fed();
  auto engine = make_engine(25);
  engine.faults.crash_rate = 0.25;
  engine.faults.corruption_rate = 0.15;
  engine.faults.straggler_rate = 0.1;
  engine.faults.seed = 31;
  engine.overcommit = 0.6;           // dispatch ceil(5 * 1.6) = 8
  engine.deadline_quantile = 0.8;
  engine.max_update_norm = 50.0;     // catches ScaleExplode corruption
  fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                               engine);
  select::RandomSelector selector;
  const auto history = trainer.run(selector);

  std::size_t crashed = 0, late = 0, rejected = 0;
  double prev_time = 0.0;
  for (const auto& r : history.records()) {
    // Every dispatched client has exactly one fate.
    EXPECT_EQ(r.selected.size() + r.crashed.size() + r.late.size() +
                  r.rejected.size(),
              r.dispatched);
    EXPECT_LE(r.dispatched, 8u);
    EXPECT_GT(r.dispatched, 0u);
    EXPECT_GT(r.deadline_s, 0.0);
    // Fates are disjoint.
    std::set<std::size_t> all;
    for (const auto* group : {&r.selected, &r.crashed, &r.late, &r.rejected}) {
      for (std::size_t id : *group) {
        EXPECT_TRUE(all.insert(id).second) << "client in two fate groups";
      }
    }
    // The server never waits past the deadline.
    EXPECT_LE(r.round_duration_s, r.deadline_s + 1e-12);
    EXPECT_GE(r.sim_time_s, prev_time);
    prev_time = r.sim_time_s;
    crashed += r.crashed.size();
    late += r.late.size();
    rejected += r.rejected.size();
  }
  // At these rates every failure mode must actually occur.
  EXPECT_GT(crashed, 0u);
  EXPECT_GT(late, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(history.total_wasted(), crashed + late + rejected);
  EXPECT_GT(history.total_dispatched(), 25u * 5u);

  // Corrupted updates never reach the global model.
  for (float v : trainer.final_parameters()) {
    ASSERT_TRUE(std::isfinite(v));
  }
}

TEST(EngineFaults, RefusesCorruptionOnAPreAggregatingDispatcher) {
  // A grouped or tree dispatcher folds updates before the engine sees
  // them, so the engine could not corrupt them: a grouped run would book as
  // selected the clients a flat run books as rejected. The trainer refuses
  // the pair instead.
  struct Grouped final : fl::RoundDispatcher {
    void execute(std::span<const fl::TrainJobSpec>, const std::vector<float>&,
                 std::vector<fl::TrainOutcome>&) override {}
    const std::vector<fl::PartialAggregate>* partials() const override {
      return &parts;
    }
    std::vector<fl::PartialAggregate> parts;
  } grouped;
  const auto fed = make_fed();
  auto engine = make_engine(2);
  engine.dispatcher = &grouped;
  engine.faults.crash_rate = 0.1;
  EXPECT_NO_THROW(fl::FederatedTrainer(
      fed, core::default_model_factory(fed, 99), engine));
  engine.faults.corruption_rate = 0.1;
  try {
    fl::FederatedTrainer(fed, core::default_model_factory(fed, 99), engine);
    ADD_FAILURE() << "corruption on a pre-aggregating dispatcher accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("faults.corruption_rate"),
              std::string::npos)
        << e.what();
  }
}

TEST(EngineFaults, OverSelectionClampsToPopulation) {
  const auto fed = make_fed(10, 6);
  auto engine = make_engine(6);
  engine.clients_per_round = 5;
  engine.overcommit = 1.0;  // would ask for 10 of 6 clients
  engine.faults.crash_rate = 0.1;
  engine.faults.seed = 5;
  fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                               engine);
  select::RandomSelector selector;
  const auto history = trainer.run(selector);
  for (const auto& r : history.records()) {
    EXPECT_LE(r.dispatched, 6u);
  }
}

TEST(EngineFaults, ProceedsWithShortRoundWhenFewAvailable) {
  const auto fed = make_fed(10, 8);
  auto engine = make_engine(10);
  engine.clients_per_round = 5;
  engine.overcommit = 0.4;
  // Heavy pre-round dropout: often fewer than 5 clients are reachable; the
  // engine must run a short round, not fail an invariant check.
  const auto dropout = sim::make_per_epoch_dropout(8, 0.7, 21);
  fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                               engine);
  select::RandomSelector selector;
  const auto history = trainer.run(selector, *dropout);
  ASSERT_EQ(history.records().size(), 10u);
  bool some_short = false;
  for (const auto& r : history.records()) {
    if (r.dispatched < 5u) some_short = true;
  }
  EXPECT_TRUE(some_short);
}

TEST(EngineFaults, BreakerQuarantinesPermanentlyCrashingClients) {
  const auto fed = make_fed(10, 6);
  auto engine = make_engine(12);
  engine.clients_per_round = 6;
  engine.faults.crash_rate = 1.0;  // everyone crashes every dispatch
  engine.faults.seed = 3;
  engine.breaker.failure_threshold = 3;
  engine.breaker.base_cooldown = 4;
  fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                               engine);
  select::RandomSelector selector;
  const auto history = trainer.run(selector);
  ASSERT_EQ(history.records().size(), 12u);
  // First three rounds: all six dispatched, all crash. Then every breaker is
  // open and the engine proceeds with empty rounds until cooldowns expire.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(history.records()[i].dispatched, 6u);
    EXPECT_EQ(history.records()[i].crashed.size(), 6u);
  }
  EXPECT_EQ(history.records()[3].dispatched, 0u);
  bool some_empty = false, some_retry = false;
  for (std::size_t i = 3; i < 12; ++i) {
    const auto& r = history.records()[i];
    if (r.dispatched == 0) some_empty = true;
    if (r.dispatched > 0) some_retry = true;  // half-open probes
    EXPECT_EQ(r.selected.size(), 0u);
  }
  EXPECT_TRUE(some_empty);
  EXPECT_TRUE(some_retry);
}

// ---------------------------------------------------------------------------
// Selector failure hooks

std::vector<fl::ClientRuntimeInfo> make_view(
    const std::vector<double>& latencies) {
  std::vector<fl::ClientRuntimeInfo> view;
  for (std::size_t i = 0; i < latencies.size(); ++i) {
    fl::ClientRuntimeInfo info;
    info.id = i;
    info.latency_s = latencies[i];
    info.num_samples = 100;
    info.last_loss = 2.3;
    info.available = true;
    view.push_back(info);
  }
  return view;
}

TEST(HaccsFailure, PenaltyDemotesFailedDeviceWithinItsCluster) {
  core::HaccsConfig cfg;
  cfg.in_cluster = core::InClusterPolicy::MinLatency;
  // One cluster {0, 1, 2}: client 0 is fastest and normally always picked.
  core::HaccsSelector selector({0, 0, 0}, cfg);
  const auto view = make_view({1.0, 2.0, 3.0});
  Rng rng(17);

  auto out = selector.select(1, view, 0, rng);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0u);

  // Two failures: penalty 2 -> 4; effective latency ~3.8 > client 1's 2.0.
  selector.report_failure(0, 0, fl::FailureKind::Crash);
  selector.report_failure(0, 0, fl::FailureKind::Crash);
  EXPECT_DOUBLE_EQ(selector.failure_penalty_of(0), 4.0);
  EXPECT_DOUBLE_EQ(selector.failure_penalty_of(1), 1.0);

  out = selector.select(1, view, 1, rng);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 1u);  // the next-fastest same-cluster device stands in

  // The penalty decays back toward 1 over fault-free epochs.
  const double decayed = selector.failure_penalty_of(0);
  EXPECT_LT(decayed, 4.0);
  EXPECT_GT(decayed, 1.0);
}

TEST(HaccsFailure, ReplacementDrawComesFromTheFailedCluster) {
  core::HaccsConfig cfg;
  cfg.in_cluster = core::InClusterPolicy::MinLatency;
  cfg.rho = 1.0;  // latency-only weights: cluster 0 (fast) dominates the draw
  core::HaccsSelector selector({0, 0, 0, 1, 1, 1}, cfg);
  // Cluster 1 is much slower, so the weighted draw essentially never picks
  // it; only the replacement IOU can.
  const auto view = make_view({1.0, 1.1, 1.2, 50.0, 60.0, 70.0});
  Rng rng(23);

  // Client 4 (cluster 1) fails: cluster 1 is owed a stand-in.
  selector.report_failure(4, 0, fl::FailureKind::Timeout);
  const auto out = selector.select(1, view, 1, rng);
  ASSERT_EQ(out.size(), 1u);
  // The stand-in is the fastest cluster-1 device (client 3), not the failed
  // client's own slot and not a cluster-0 device.
  EXPECT_EQ(out[0], 3u);

  // The IOU is consumed: the next draw reverts to the weighted sampling.
  const auto next = selector.select(1, view, 2, rng);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_LT(next[0], 3u);
}

TEST(HaccsFailure, ReplacementCanBeDisabled) {
  core::HaccsConfig cfg;
  cfg.rho = 1.0;
  cfg.failure_replacement = false;
  cfg.failure_penalty = 1.0;  // fault-unaware baseline
  core::HaccsSelector selector({0, 0, 0, 1, 1, 1}, cfg);
  const auto view = make_view({1.0, 1.1, 1.2, 50.0, 60.0, 70.0});
  Rng rng(23);
  selector.report_failure(4, 0, fl::FailureKind::Timeout);
  EXPECT_DOUBLE_EQ(selector.failure_penalty_of(4), 1.0);
  const auto out = selector.select(1, view, 1, rng);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_LT(out[0], 3u);  // no IOU: the fast cluster keeps the slot
}

TEST(OortFailure, FailurePenalizesUtilityAndSuccessRecoversIt) {
  select::OortConfig cfg;
  select::OortSelector selector(cfg);
  const auto view = make_view({1.0, 2.0, 3.0});
  selector.initialize(view);

  const double before = selector.utility(view[1], 1);
  ASSERT_GT(before, 0.0);
  EXPECT_DOUBLE_EQ(selector.reliability_of(1), 1.0);

  selector.report_failure(1, 1, fl::FailureKind::Crash);
  EXPECT_DOUBLE_EQ(selector.reliability_of(1), 0.5);
  EXPECT_DOUBLE_EQ(selector.utility(view[1], 1), 0.5 * before);

  // Repeated failures floor at min_reliability, never zero.
  for (int i = 0; i < 20; ++i) {
    selector.report_failure(1, 1, fl::FailureKind::Crash);
  }
  EXPECT_DOUBLE_EQ(selector.reliability_of(1), cfg.min_reliability);
  EXPECT_GT(selector.utility(view[1], 1), 0.0);

  // A successful round pulls reliability back toward 1.
  const double floor = selector.reliability_of(1);
  selector.report_result(1, 2.0, 2);
  EXPECT_GT(selector.reliability_of(1), floor);

  // Other clients are untouched.
  EXPECT_DOUBLE_EQ(selector.reliability_of(0), 1.0);
}

TEST(TiflFailure, FailedClientRefundsItsTierCreditShare) {
  select::TiflConfig cfg;
  cfg.num_tiers = 2;
  cfg.expected_rounds = 10;
  cfg.credit_factor = 2.0;  // initial credits: 2 * 10/2 = 10 per tier
  select::TiflSelector selector(cfg);
  const auto view = make_view({1.0, 1.5, 2.0, 5.0, 6.0, 7.0});
  selector.initialize(view);
  ASSERT_EQ(selector.num_tiers(), 2u);
  EXPECT_DOUBLE_EQ(selector.tier_credits(0), 10.0);
  EXPECT_DOUBLE_EQ(selector.tier_credits(1), 10.0);

  Rng rng(9);
  const auto out = selector.select(2, view, 0, rng);
  ASSERT_EQ(out.size(), 2u);
  // Exactly one tier was charged one credit.
  const std::size_t charged =
      selector.tier_credits(0) < 10.0 ? 0u : 1u;
  EXPECT_DOUBLE_EQ(selector.tier_credits(charged), 9.0);

  // A member of the charged tier fails: its 1/k share flows back.
  const std::size_t failed = out[0];
  ASSERT_EQ(selector.tier_of()[failed], charged);
  selector.report_failure(failed, 0, fl::FailureKind::CorruptUpdate);
  EXPECT_DOUBLE_EQ(selector.tier_credits(charged), 9.5);

  // Refunds never push a tier above its initial grant.
  for (int i = 0; i < 10; ++i) {
    selector.report_failure(failed, 0, fl::FailureKind::CorruptUpdate);
  }
  EXPECT_DOUBLE_EQ(selector.tier_credits(charged), 10.0);
}

// ---------------------------------------------------------------------------
// Async engine under faults

TEST(AsyncFaults, CrashesFreeSlotsAndAreAccounted) {
  const auto fed = make_fed();
  fl::AsyncEngineConfig cfg;
  cfg.aggregations = 20;
  cfg.max_in_flight = 4;
  cfg.buffer_size = 2;
  cfg.eval_every = 10;
  cfg.local.sgd.learning_rate = 0.08;
  cfg.seed = 13;
  cfg.faults.crash_rate = 0.3;
  cfg.faults.seed = 44;
  fl::AsyncFederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                                    cfg);
  select::RandomSelector selector;
  const auto history = trainer.run(selector);
  ASSERT_EQ(history.records().size(), 20u);
  std::size_t crashed = 0, aggregated = 0, dispatched = 0;
  for (const auto& r : history.records()) {
    // Crashes free their slot: every aggregation still collects a full
    // buffer despite the crash rate.
    EXPECT_EQ(r.selected.size(), 2u);
    crashed += r.crashed.size();
    aggregated += r.selected.size();
    dispatched += r.dispatched;
  }
  EXPECT_GT(crashed, 0u);
  EXPECT_GE(dispatched, aggregated + crashed);
  EXPECT_EQ(history.total_wasted(), crashed);
}

TEST(AsyncFaults, CorruptUpdatesAreRejected) {
  const auto fed = make_fed();
  fl::AsyncEngineConfig cfg;
  cfg.aggregations = 15;
  cfg.max_in_flight = 4;
  cfg.buffer_size = 2;
  cfg.eval_every = 10;
  cfg.local.sgd.learning_rate = 0.08;
  cfg.seed = 13;
  cfg.faults.corruption_rate = 0.4;
  cfg.faults.seed = 44;
  cfg.max_update_norm = 50.0;
  fl::AsyncFederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                                    cfg);
  select::RandomSelector selector;
  const auto history = trainer.run(selector);
  std::size_t rejected = 0;
  for (const auto& r : history.records()) rejected += r.rejected.size();
  EXPECT_GT(rejected, 0u);
  for (float v : trainer.final_parameters()) {
    ASSERT_TRUE(std::isfinite(v));
  }
}

// ---------------------------------------------------------------------------
// fig_faults smoke: the acceptance-criterion comparison

TEST(FigFaultsSmoke, FaultAwareHaccsWastesLessToTargetUnderFlakyCrashes) {
  // Mirrors bench/fig_faults at test scale: a cluster-rich federation (5
  // label groups x 3 clients) where an average 30% of dispatches crash,
  // concentrated on seeded flaky devices. Fault-aware HACCS (over-selection,
  // breaker quarantine, penalty + same-cluster re-sampling) must reach the
  // target accuracy having wasted fewer client-rounds than the fault-unaware
  // configuration.
  const auto fed = make_fed(5, 15);
  const double target = 0.55;
  fl::TrainingHistory histories[2];
  for (int aware = 0; aware <= 1; ++aware) {
    auto engine = make_engine(60);
    engine.faults.crash_rate = 0.15;
    engine.faults.flaky_fraction = 0.25;
    engine.faults.flaky_crash_boost = 5.0;  // flaky devices crash 75% of rounds
    engine.faults.seed = 990;               // = bench's exp.seed + 977
    core::HaccsConfig haccs;
    haccs.rho = 0.5;
    if (aware) {
      engine.overcommit = 0.2;
    } else {
      engine.breaker.failure_threshold = 1000000;  // breaker effectively off
      haccs.failure_penalty = 1.0;
      haccs.failure_replacement = false;
    }
    fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                                 engine);
    core::HaccsSelector selector(fed, haccs);
    histories[aware] = trainer.run(selector);
  }
  const auto& plain = histories[0];
  const auto& hardened = histories[1];
  // Both configurations must converge...
  ASSERT_LT(plain.epochs_to_accuracy(target), 60u);
  ASSERT_LT(hardened.epochs_to_accuracy(target), 60u);
  // ...but the fault-aware run wastes fewer client-rounds getting there,
  // and fewer over the whole run, despite dispatching more per round.
  EXPECT_LT(hardened.wasted_until_accuracy(target),
            plain.wasted_until_accuracy(target));
  EXPECT_LT(hardened.total_wasted(), plain.total_wasted());
  EXPECT_GT(hardened.total_dispatched(), plain.total_dispatched());
}

}  // namespace
}  // namespace haccs
