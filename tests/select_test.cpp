// Tests for src/select: the Random, TiFL, and Oort baseline strategies, and
// the state blobs of the loss-guided zoo (Oort, DPP, FedLECC, HiCS).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>

#include "src/select/dpp.hpp"
#include "src/select/fedlecc.hpp"
#include "src/select/hics.hpp"
#include "src/select/oort.hpp"
#include "src/select/random_selector.hpp"
#include "src/select/tifl.hpp"

namespace haccs::select {
namespace {

std::vector<fl::ClientRuntimeInfo> make_view(std::size_t n) {
  std::vector<fl::ClientRuntimeInfo> view(n);
  for (std::size_t i = 0; i < n; ++i) {
    view[i].id = i;
    // Latency increases with id: client 0 is the fastest.
    view[i].latency_s = 1.0 + static_cast<double>(i);
    view[i].num_samples = 100;
    view[i].last_loss = 1.0;
    view[i].available = true;
  }
  return view;
}

TEST(RandomSelectorTest, ReturnsKDistinctAvailable) {
  RandomSelector s;
  auto view = make_view(10);
  view[3].available = false;
  Rng rng(1);
  for (int rep = 0; rep < 50; ++rep) {
    const auto picks = s.select(4, view, 0, rng);
    EXPECT_EQ(picks.size(), 4u);
    std::set<std::size_t> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), 4u);
    EXPECT_EQ(unique.count(3), 0u);
  }
}

TEST(RandomSelectorTest, ReturnsAllWhenFewerThanK) {
  RandomSelector s;
  auto view = make_view(3);
  Rng rng(2);
  const auto picks = s.select(10, view, 0, rng);
  EXPECT_EQ(picks.size(), 3u);
}

TEST(RandomSelectorTest, CoversAllClientsOverTime) {
  RandomSelector s;
  auto view = make_view(8);
  Rng rng(3);
  std::set<std::size_t> seen;
  for (int rep = 0; rep < 100; ++rep) {
    for (std::size_t id : s.select(2, view, 0, rng)) seen.insert(id);
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Tifl, TiersOrderedByLatency) {
  TiflConfig cfg;
  cfg.num_tiers = 5;
  TiflSelector s(cfg);
  auto view = make_view(25);
  s.initialize(view);
  ASSERT_EQ(s.num_tiers(), 5u);
  // Lower-latency clients land in lower tiers; with our monotone latencies,
  // tier boundaries are exactly id/5.
  for (std::size_t i = 0; i < 25; ++i) {
    EXPECT_EQ(s.tier_of()[i], i / 5) << "client " << i;
  }
}

TEST(Tifl, FewerClientsThanTiers) {
  TiflConfig cfg;
  cfg.num_tiers = 10;
  TiflSelector s(cfg);
  auto view = make_view(4);
  s.initialize(view);
  EXPECT_EQ(s.num_tiers(), 4u);
}

TEST(Tifl, SelectsWithinOneTier) {
  TiflConfig cfg;
  cfg.num_tiers = 5;
  TiflSelector s(cfg);
  auto view = make_view(25);
  s.initialize(view);
  Rng rng(5);
  const auto picks = s.select(3, view, 0, rng);
  EXPECT_EQ(picks.size(), 3u);
  std::set<std::size_t> tiers;
  for (std::size_t id : picks) tiers.insert(s.tier_of()[id]);
  EXPECT_EQ(tiers.size(), 1u);  // all picks from the sampled tier
}

TEST(Tifl, SpillsIntoNeighborTiersWhenShort) {
  TiflConfig cfg;
  cfg.num_tiers = 5;
  TiflSelector s(cfg);
  auto view = make_view(25);
  s.initialize(view);
  Rng rng(7);
  // Ask for more clients than one tier holds.
  const auto picks = s.select(8, view, 0, rng);
  EXPECT_EQ(picks.size(), 8u);
  std::set<std::size_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 8u);
}

TEST(Tifl, HighLossTiersSampledMoreOften) {
  TiflConfig cfg;
  cfg.num_tiers = 2;
  cfg.expected_rounds = 10000;  // effectively unlimited credits
  TiflSelector s(cfg);
  auto view = make_view(10);
  s.initialize(view);
  // Tier 0 reports low loss, tier 1 high loss.
  for (std::size_t id = 0; id < 5; ++id) s.report_result(id, 0.1, 0);
  for (std::size_t id = 5; id < 10; ++id) s.report_result(id, 2.0, 0);
  Rng rng(9);
  int tier1_picked = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    const auto picks = s.select(1, view, 1, rng);
    ASSERT_EQ(picks.size(), 1u);
    if (s.tier_of()[picks[0]] == 1) ++tier1_picked;
  }
  // Expected share = 2.0 / 2.1 ~ 95%.
  EXPECT_GT(tier1_picked, trials * 3 / 4);
}

TEST(Tifl, SkipsUnavailableTiers) {
  TiflConfig cfg;
  cfg.num_tiers = 2;
  TiflSelector s(cfg);
  auto view = make_view(10);
  s.initialize(view);
  for (std::size_t id = 0; id < 5; ++id) view[id].available = false;  // tier 0
  Rng rng(11);
  for (int t = 0; t < 20; ++t) {
    for (std::size_t id : s.select(2, view, 0, rng)) {
      EXPECT_GE(id, 5u);
    }
  }
}

TEST(Tifl, FailureRefundNeverExceedsInitialCredits) {
  // A failed client refunds 1/k of a credit to its tier; spamming
  // report_failure (duplicate fault notifications, replayed events) must not
  // mint credits beyond the initial grant. Pinned by the fuzzer's edge-case
  // sweep.
  TiflConfig cfg;
  cfg.num_tiers = 5;
  cfg.credit_factor = 2.0;
  cfg.expected_rounds = 200;
  TiflSelector s(cfg);
  auto view = make_view(25);
  s.initialize(view);
  const double initial = s.tier_credits(0);
  EXPECT_DOUBLE_EQ(initial, 2.0 * 200.0 / 5.0);

  // No round charged yet: every refund is already clamped at the grant.
  for (int i = 0; i < 50; ++i) s.report_failure(0, 0, fl::FailureKind::Crash);
  EXPECT_DOUBLE_EQ(s.tier_credits(0), initial);

  // After a real round, refunds restore at most what the round charged.
  Rng rng(31);
  const auto picks = s.select(3, view, 0, rng);
  ASSERT_FALSE(picks.empty());
  const std::size_t charged_tier = s.tier_of()[picks[0]];
  EXPECT_LT(s.tier_credits(charged_tier), initial);
  for (int i = 0; i < 100; ++i) {
    s.report_failure(picks[0], 0, fl::FailureKind::Crash);
    EXPECT_LE(s.tier_credits(charged_tier), initial);
  }
  EXPECT_DOUBLE_EQ(s.tier_credits(charged_tier), initial);
}

TEST(Tifl, RejectsBadConfig) {
  EXPECT_THROW(TiflSelector({.num_tiers = 0}), std::invalid_argument);
  EXPECT_THROW(TiflSelector({.num_tiers = 2, .credit_factor = 0.5}),
               std::invalid_argument);
}

TEST(Oort, DeadlineIsLatencyQuantile) {
  OortConfig cfg;
  cfg.deadline_quantile = 0.8;
  OortSelector s(cfg);
  auto view = make_view(10);  // latencies 1..10
  s.initialize(view);
  EXPECT_NEAR(s.deadline(), 1.0 + 0.8 * 9.0, 1.0);
}

TEST(Oort, UtilityPrefersHighLoss) {
  OortSelector s({});
  auto view = make_view(4);
  s.initialize(view);
  s.report_result(0, 0.1, 0);
  s.report_result(1, 3.0, 0);
  EXPECT_GT(s.utility(view[1], 1), s.utility(view[0], 1));
}

TEST(Oort, UtilityPenalizesSlowClients) {
  OortSelector s({});
  auto view = make_view(10);
  s.initialize(view);
  for (std::size_t id = 0; id < 10; ++id) s.report_result(id, 1.0, 0);
  // Same loss, same samples — but client 9 is beyond the deadline.
  EXPECT_GT(s.utility(view[0], 1), s.utility(view[9], 1));
}

TEST(Oort, SelectsHighestUtilityClients) {
  OortConfig cfg;
  cfg.initial_exploration = 0.0;  // pure exploitation
  cfg.min_exploration = 0.0;
  OortSelector s(cfg);
  auto view = make_view(10);
  s.initialize(view);
  // Make clients 7, 8 clearly the highest-utility (high loss, fast enough).
  for (std::size_t id = 0; id < 10; ++id) s.report_result(id, 0.1, 0);
  view[2].last_loss = 5.0;
  s.report_result(2, 5.0, 0);
  view[4].last_loss = 4.0;
  s.report_result(4, 4.0, 0);
  Rng rng(13);
  const auto picks = s.select(2, view, 1, rng);
  std::set<std::size_t> got(picks.begin(), picks.end());
  EXPECT_TRUE(got.count(2));
  EXPECT_TRUE(got.count(4));
}

TEST(Oort, ExplorationPicksUnexploredClients) {
  OortConfig cfg;
  cfg.initial_exploration = 1.0;  // all slots explore
  cfg.min_exploration = 1.0;
  cfg.exploration_decay = 1.0;
  OortSelector s(cfg);
  auto view = make_view(10);
  s.initialize(view);
  // Observe clients 0..4; 5..9 are unexplored.
  for (std::size_t id = 0; id < 5; ++id) s.report_result(id, 1.0, 0);
  Rng rng(17);
  const auto picks = s.select(3, view, 1, rng);
  for (std::size_t id : picks) EXPECT_GE(id, 5u);
}

TEST(Oort, HonorsAvailability) {
  OortSelector s({});
  auto view = make_view(6);
  s.initialize(view);
  for (std::size_t id = 0; id < 3; ++id) view[id].available = false;
  Rng rng(19);
  for (int t = 0; t < 10; ++t) {
    for (std::size_t id : s.select(2, view, t, rng)) EXPECT_GE(id, 3u);
  }
}

TEST(Oort, RejectsBadConfig) {
  EXPECT_THROW(OortSelector({.alpha = -1.0}), std::invalid_argument);
  EXPECT_THROW(OortSelector({.alpha = 1.0, .deadline_quantile = 0.0}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// State-blob pins: a fixed feedback sequence must serialize to the same bytes
// (tag, version, field order, values), so a checkpoint written by one build
// resumes on the next. Update a pin only for a deliberate format change.

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : bytes) hash = (hash ^ b) * 0x100000001b3ULL;
  return hash;
}

/// Feeds `selector` a fixed mix of results and failures over 8 clients:
/// one client floors its reliability, one recovers, two stay unobserved.
std::vector<std::uint8_t> blob_after_fixed_feedback(fl::ClientSelector& s) {
  s.initialize(make_view(8));
  s.report_result(0, 1.5, 0);
  for (int i = 0; i < 3; ++i) s.report_failure(1, 1, fl::FailureKind::Crash);
  s.report_result(1, 0.75, 2);
  s.report_failure(2, 2, fl::FailureKind::Timeout);
  s.report_result(3, 2.25, 3);
  s.report_result(3, 0.125, 4);
  for (int i = 0; i < 9; ++i) {
    s.report_failure(5, 5, fl::FailureKind::CorruptUpdate);
  }
  s.report_result(6, 3.0, 6);
  s.report_failure(6, 7, fl::FailureKind::Crash);
  return s.save_state();
}

std::vector<std::vector<double>> pin_label_counts() {
  return {{9, 1, 0, 0}, {8, 2, 0, 0}, {0, 9, 1, 0}, {0, 8, 2, 0},
          {0, 0, 9, 1}, {0, 0, 1, 9}, {3, 3, 2, 2}, {1, 0, 0, 9}};
}

TEST(SelectorStatePins, OortBlobIsPinned) {
  OortSelector s({});
  EXPECT_EQ(fnv1a(blob_after_fixed_feedback(s)), 0xdae9c683e42a661bULL);
}

TEST(SelectorStatePins, DppBlobIsPinned) {
  DppSelector s(pin_label_counts(), {});
  EXPECT_EQ(fnv1a(blob_after_fixed_feedback(s)), 0x0a4fa9e166757a38ULL);
}

TEST(SelectorStatePins, FedLeccBlobIsPinned) {
  FedLeccSelector s(pin_label_counts(), {});
  EXPECT_EQ(fnv1a(blob_after_fixed_feedback(s)), 0x0df673f667c4476aULL);
}

TEST(SelectorStatePins, HicsBlobIsPinned) {
  HicsSelector s(pin_label_counts(), {});
  EXPECT_EQ(fnv1a(blob_after_fixed_feedback(s)), 0x37ad39774703c126ULL);
}

}  // namespace
}  // namespace haccs::select
