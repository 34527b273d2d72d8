// Tests for src/sim: Table II device profiles (intervals and category
// frequencies), the latency model arithmetic, the simulated clock, and every
// dropout schedule.
#include <gtest/gtest.h>

#include <cmath>

#include "src/sim/dropout.hpp"
#include "src/sim/latency.hpp"
#include "src/sim/profile.hpp"

namespace haccs::sim {
namespace {

TEST(Profile, ValuesStayInsideTableIIIntervals) {
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const auto p = DeviceProfile::sample(rng);
    const auto [clo, chi] = DeviceProfile::compute_multiplier_range(p.compute_category);
    EXPECT_GE(p.compute_multiplier, clo);
    EXPECT_LE(p.compute_multiplier, chi);
    const auto [blo, bhi] = DeviceProfile::bandwidth_range_mbps(p.bandwidth_category);
    EXPECT_GE(p.bandwidth_mbps, blo);
    EXPECT_LE(p.bandwidth_mbps, bhi);
    EXPECT_GE(p.network_latency_s, 0.020);
    EXPECT_LE(p.network_latency_s, 0.200);
  }
}

TEST(Profile, CategoryFrequenciesMatch60_20_15_5) {
  Rng rng(5);
  int counts[4] = {0, 0, 0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<int>(DeviceProfile::sample(rng).compute_category)];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.60, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.20, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.15, 0.02);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.05, 0.01);
}

TEST(Profile, FastCategoryHasNoComputeDelay) {
  const auto [lo, hi] = DeviceProfile::compute_multiplier_range(PerfCategory::Fast);
  EXPECT_DOUBLE_EQ(lo, 1.0);
  EXPECT_DOUBLE_EQ(hi, 1.0);
}

TEST(Latency, DecomposesIntoTransferPlusCompute) {
  LatencyModel model({.model_bytes = 1000000, .seconds_per_sample = 0.01,
                      .local_epochs = 2});
  DeviceProfile p;
  p.compute_multiplier = 2.0;
  p.bandwidth_mbps = 8.0;  // 8 Mbps = 1e6 bytes/s
  p.network_latency_s = 0.1;

  // transfer: 2*0.1 + 2 * 8e6 bits / 8e6 bps = 0.2 + 2.0
  EXPECT_NEAR(model.transfer_time(p), 2.2, 1e-9);
  // compute: 2.0 * 0.01 * 50 samples * 2 epochs = 2.0
  EXPECT_NEAR(model.compute_time(p, 50), 2.0, 1e-9);
  EXPECT_NEAR(model.round_latency(p, 50), 4.2, 1e-9);
}

TEST(Latency, SlowerProfileMeansHigherLatency) {
  LatencyModel model({});
  DeviceProfile fast, slow;
  fast.compute_multiplier = 1.0;
  fast.bandwidth_mbps = 100.0;
  fast.network_latency_s = 0.02;
  slow.compute_multiplier = 3.0;
  slow.bandwidth_mbps = 2.0;
  slow.network_latency_s = 0.2;
  EXPECT_GT(model.round_latency(slow, 100), model.round_latency(fast, 100));
}

TEST(Latency, RejectsBadConfig) {
  EXPECT_THROW(LatencyModel({.model_bytes = 1, .seconds_per_sample = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(LatencyModel({.model_bytes = 1, .seconds_per_sample = 0.1,
                             .local_epochs = 0}),
               std::invalid_argument);
}

TEST(Clock, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
  clock.advance(1.5);
  EXPECT_DOUBLE_EQ(clock.now(), 1.5);
  EXPECT_THROW(clock.advance(-0.1), std::invalid_argument);
}

TEST(Clock, RoundTakesStragglerTime) {
  SimClock clock;
  const std::vector<double> latencies = {1.0, 7.5, 3.0};
  const double duration = clock.advance_round(latencies);
  EXPECT_DOUBLE_EQ(duration, 7.5);
  EXPECT_DOUBLE_EQ(clock.now(), 7.5);
  // Empty round advances nothing.
  EXPECT_DOUBLE_EQ(clock.advance_round({}), 0.0);
  clock.reset();
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
}

TEST(Dropout, AlwaysAvailable) {
  const auto s = make_always_available(5);
  const auto mask = s->available(0);
  EXPECT_EQ(mask.size(), 5u);
  for (bool b : mask) EXPECT_TRUE(b);
  EXPECT_EQ(s->num_clients(), 5u);
}

TEST(Dropout, PerEpochDropsExactFraction) {
  const auto s = make_per_epoch_dropout(50, 0.10, 99);
  for (std::size_t epoch = 0; epoch < 20; ++epoch) {
    const auto mask = s->available(epoch);
    std::size_t dropped = 0;
    for (bool b : mask) {
      if (!b) ++dropped;
    }
    EXPECT_EQ(dropped, 5u) << "epoch " << epoch;
  }
}

TEST(Dropout, PerEpochDeterministicPerSeedAndEpoch) {
  const auto a = make_per_epoch_dropout(30, 0.2, 7);
  const auto b = make_per_epoch_dropout(30, 0.2, 7);
  for (std::size_t epoch : {0u, 3u, 11u}) {
    EXPECT_EQ(a->available(epoch), b->available(epoch));
  }
  // Different epochs give different draws (overwhelmingly likely).
  EXPECT_NE(a->available(0), a->available(1));
  // Different seeds give different draws.
  const auto c = make_per_epoch_dropout(30, 0.2, 8);
  EXPECT_NE(a->available(0), c->available(0));
}

TEST(Dropout, PerEpochRecovery) {
  // The paper recovers devices each epoch: the union of available clients
  // across several epochs should approach everyone.
  const auto s = make_per_epoch_dropout(20, 0.3, 13);
  std::vector<bool> ever(20, false);
  for (std::size_t epoch = 0; epoch < 30; ++epoch) {
    const auto mask = s->available(epoch);
    for (std::size_t i = 0; i < 20; ++i) {
      if (mask[i]) ever[i] = true;
    }
  }
  for (bool b : ever) EXPECT_TRUE(b);
}

TEST(Dropout, PerEpochRejectsBadFraction) {
  EXPECT_THROW(make_per_epoch_dropout(10, -0.1, 1), std::invalid_argument);
  EXPECT_THROW(make_per_epoch_dropout(10, 1.5, 1), std::invalid_argument);
}

TEST(Dropout, PermanentRandomDropsFromEpoch) {
  const auto s = make_permanent_random_dropout(100, 80, 3, 55);
  // Before from_epoch everyone is up.
  for (bool b : s->available(2)) EXPECT_TRUE(b);
  // From epoch 3 on, exactly 80 are down — and the same 80 forever.
  const auto at3 = s->available(3);
  std::size_t down = 0;
  for (bool b : at3) {
    if (!b) ++down;
  }
  EXPECT_EQ(down, 80u);
  EXPECT_EQ(s->available(100), at3);
  EXPECT_THROW(make_permanent_random_dropout(10, 11, 0, 1),
               std::invalid_argument);
}

TEST(Dropout, GroupDropoutRemovesWholeGroups) {
  // 9 clients in 3 groups of 3.
  const std::vector<int> group_of = {0, 0, 0, 1, 1, 1, 2, 2, 2};
  const auto s = make_group_dropout(group_of, {0, 2}, 1);
  for (bool b : s->available(0)) EXPECT_TRUE(b);
  const auto mask = s->available(1);
  EXPECT_FALSE(mask[0]);
  EXPECT_FALSE(mask[1]);
  EXPECT_FALSE(mask[2]);
  EXPECT_TRUE(mask[3]);
  EXPECT_TRUE(mask[4]);
  EXPECT_TRUE(mask[5]);
  EXPECT_FALSE(mask[6]);
  EXPECT_FALSE(mask[8]);
}

}  // namespace
}  // namespace haccs::sim
