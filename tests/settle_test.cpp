// The engine's settle step: fl::fold_updates (validation on the thread pool,
// then the f64 sums in parallel over parameter ranges) and the exact
// shortcut in fl::update_is_valid, each held bit for bit against a serial
// reference that is a copy of the slot-by-slot fold they replaced.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/threadpool.hpp"
#include "src/fl/dispatch.hpp"
#include "src/fl/engine.hpp"
#include "src/tensor/vecops.hpp"

namespace haccs::fl {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

/// update_is_valid's serial body before the shortcut: one early-exit pass
/// with a running f64 norm, then the norm's own finiteness test.
bool serial_is_valid(std::span<const float> delta, double max_norm) {
  double norm_sq = 0.0;
  for (float v : delta) {
    if (!std::isfinite(v)) return false;
    norm_sq += static_cast<double>(v) * static_cast<double>(v);
  }
  if (!std::isfinite(norm_sq)) return false;
  return max_norm <= 0.0 || norm_sq <= max_norm * max_norm;
}

/// The fold the engine ran slot by slot: delta = updated - global, serial
/// validation, then a lazily zeroed f64 sum += weight · updated.
struct SerialFold {
  std::vector<PartialAggregate> partials;
  std::vector<bool> accepted;
};

SerialFold serial_fold(const std::vector<std::vector<float>>& updates,
                       const std::vector<double>& weights,
                       const std::vector<std::size_t>& groups,
                       std::span<const float> global, std::size_t num_groups,
                       double max_norm) {
  SerialFold out;
  out.partials.resize(num_groups);
  std::vector<float> delta;
  for (std::size_t s = 0; s < updates.size(); ++s) {
    const std::vector<float>& updated = updates[s];
    if (updated.empty()) {
      out.accepted.push_back(false);
      continue;
    }
    delta.resize(updated.size());
    vec::diff(delta, updated, global);
    const bool ok = serial_is_valid(delta, max_norm);
    out.accepted.push_back(ok);
    if (!ok) continue;
    PartialAggregate& agg = out.partials[groups[s]];
    if (agg.sum.empty()) agg.sum.assign(global.size(), 0.0);
    vec::accumulate_scaled(agg.sum, updated, weights[s]);
    agg.weight += weights[s];
    ++agg.updates;
  }
  return out;
}

template <typename T>
bool same_bits(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// One random round: global parameters, per-slot updates (some missing,
/// some poisoned), weights and groups.
struct Round {
  std::vector<float> global;
  std::vector<std::vector<float>> updates;
  std::vector<double> weights;
  std::vector<std::size_t> groups;
  std::size_t num_groups = 1;
};

Round random_round(Rng& rng, std::size_t params) {
  Round round;
  round.global.resize(params);
  for (float& g : round.global) g = static_cast<float>(rng.normal());
  const std::size_t slots = 1 + rng.next_u64() % 40;
  round.num_groups = 1 + rng.next_u64() % 5;
  for (std::size_t s = 0; s < slots; ++s) {
    round.groups.push_back(rng.next_u64() % round.num_groups);
    // Integer sample counts, as the engine's weights are, and now and then
    // a fractional one: the fold must not rely on either.
    round.weights.push_back(rng.uniform() < 0.9
                                ? static_cast<double>(1 + rng.next_u64() % 500)
                                : 0.5 + rng.uniform() * 100.0);
    std::vector<float> updated;
    const double kind = rng.uniform();
    if (kind >= 0.1) {  // 10% of slots deliver nothing
      updated.resize(params);
      for (std::size_t p = 0; p < params; ++p) {
        updated[p] = round.global[p] + static_cast<float>(0.1 * rng.normal());
      }
      const std::size_t at = rng.next_u64() % params;
      if (kind < 0.2) {
        updated[at] = kNaN;
      } else if (kind < 0.27) {
        updated[at] = kInf;
      } else if (kind < 0.34) {
        updated[at] = -kInf;
      } else if (kind < 0.45) {
        // A finite update whose delta overflows float: FLT_MAX against a
        // large negative global entry.
        round.global[at] = -FLT_MAX / 2.0f;
        updated[at] = FLT_MAX;
      } else if (kind < 0.5) {
        updated[at] = FLT_MAX;  // finite delta, huge norm
      }
    }
    round.updates.push_back(std::move(updated));
  }
  return round;
}

/// fold_updates over a copy of `round`'s updates: fills `slots` (with the
/// verdicts) and `partials`, and returns the updates as the fold left them
/// (the deltas, with leave_deltas).
std::vector<std::vector<float>> run_fold(
    const Round& round, double max_norm, bool leave_deltas,
    std::vector<PartialAggregate>& partials, std::vector<FoldSlot>& slots) {
  std::vector<std::vector<float>> updates = round.updates;
  slots.assign(updates.size(), FoldSlot{});
  for (std::size_t s = 0; s < updates.size(); ++s) {
    slots[s] = {updates[s], round.weights[s], round.groups[s]};
  }
  partials.resize(round.num_groups);
  fold_updates(slots, round.global, partials, max_norm, leave_deltas);
  return updates;
}

void expect_matches_serial(const Round& round, double max_norm,
                           const std::string& where) {
  const SerialFold want =
      serial_fold(round.updates, round.weights, round.groups, round.global,
                  round.num_groups, max_norm);
  std::vector<PartialAggregate> partials;
  std::vector<FoldSlot> slots;
  const auto deltas = run_fold(round, max_norm, true, partials, slots);
  for (std::size_t s = 0; s < slots.size(); ++s) {
    ASSERT_EQ(slots[s].accepted, want.accepted[s]) << where << " slot " << s;
    if (!slots[s].accepted) continue;
    std::vector<float> delta(round.global.size());
    vec::diff(delta, round.updates[s], round.global);
    ASSERT_TRUE(same_bits<float>(deltas[s], delta)) << where << " delta " << s;
  }
  for (std::size_t g = 0; g < round.num_groups; ++g) {
    ASSERT_EQ(partials[g].updates, want.partials[g].updates) << where;
    ASSERT_EQ(partials[g].weight, want.partials[g].weight) << where;
    ASSERT_TRUE(same_bits<double>(partials[g].sum, want.partials[g].sum))
        << where << " group " << g;
  }
}

TEST(EngineSettle, ParallelFoldMatchesSerialFoldBitForBit) {
  // Sizes below, at and across the fold's parameter ranges.
  const std::size_t sizes[] = {1, 7, kFoldRange - 1, kFoldRange,
                               kFoldRange + 1, 3 * kFoldRange + 17};
  Rng rng(2026);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t params = sizes[trial % std::size(sizes)];
    const Round round = random_round(rng, params);
    const std::string where = "trial " + std::to_string(trial);
    expect_matches_serial(round, 0.0, where + " unbounded");
    expect_matches_serial(round, 0.1 * std::sqrt(double(params)),
                          where + " bounded");
  }
}

TEST(EngineSettle, NormBoundDecidesAtTheBoundAndOneUlpEitherSide) {
  Rng rng(7);
  std::size_t accepted = 0, rejected = 0;
  for (int trial = 0; trial < 40; ++trial) {
    Round round = random_round(rng, 1000 + trial);
    for (auto& u : round.updates) {  // all clean, all delivered
      if (u.empty()) u.resize(round.global.size());
      for (std::size_t p = 0; p < u.size(); ++p) {
        u[p] = round.global[p] + static_cast<float>(0.1 * rng.normal());
      }
    }
    // Bounds at one slot's exact norm, as the serial sum computes it.
    std::vector<float> delta(round.global.size());
    vec::diff(delta, round.updates[0], round.global);
    double norm_sq = 0.0;
    for (float v : delta) norm_sq += double(v) * double(v);
    const double at = std::sqrt(norm_sq);
    for (const double bound : {std::nextafter(at, 0.0), at,
                               std::nextafter(at, 2.0 * at)}) {
      expect_matches_serial(round, bound, "trial " + std::to_string(trial));
      (serial_is_valid(delta, bound) ? accepted : rejected) += 1;
    }
  }
  // The bounds straddle the decision, so both verdicts were exercised.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(EngineSettle, FoldIsTheSameInlineAsOnThePool) {
  // A pool task's nested parallel_for runs inline: the whole fold on one
  // thread must give the pool's bits.
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    const Round round = random_round(rng, 2 * kFoldRange + 5);
    std::vector<PartialAggregate> pooled, inlined;
    std::vector<FoldSlot> pooled_slots, inlined_slots;
    run_fold(round, 0.0, false, pooled, pooled_slots);
    ThreadPool::global()
        .submit([&] { run_fold(round, 0.0, false, inlined, inlined_slots); })
        .get();
    for (std::size_t g = 0; g < round.num_groups; ++g) {
      ASSERT_TRUE(same_bits<double>(pooled[g].sum, inlined[g].sum)) << trial;
      ASSERT_EQ(pooled[g].weight, inlined[g].weight);
    }
    for (std::size_t s = 0; s < pooled_slots.size(); ++s) {
      ASSERT_EQ(pooled_slots[s].accepted, inlined_slots[s].accepted);
    }
  }
}

TEST(EngineSettle, PartialsAreRebuiltEachCallKeepingTheirStorage) {
  Rng rng(5);
  Round round = random_round(rng, 300);
  std::vector<PartialAggregate> partials;
  std::vector<FoldSlot> slots;
  run_fold(round, 0.0, false, partials, slots);
  std::vector<const double*> storage;
  for (const auto& part : partials) storage.push_back(part.sum.data());
  // Folding the same round again gives the same partials (nothing carried
  // over) in the same buffers.
  const SerialFold want =
      serial_fold(round.updates, round.weights, round.groups, round.global,
                  round.num_groups, 0.0);
  run_fold(round, 0.0, false, partials, slots);
  for (std::size_t g = 0; g < partials.size(); ++g) {
    EXPECT_TRUE(same_bits<double>(partials[g].sum, want.partials[g].sum));
    EXPECT_EQ(partials[g].weight, want.partials[g].weight);
    if (!partials[g].sum.empty()) {
      EXPECT_EQ(partials[g].sum.data(), storage[g]);
    }
  }
  // A group that folds nothing ends empty.
  for (auto& u : round.updates) u.clear();
  run_fold(round, 0.0, false, partials, slots);
  for (const auto& part : partials) {
    EXPECT_TRUE(part.sum.empty());
    EXPECT_EQ(part.weight, 0.0);
    EXPECT_EQ(part.updates, 0u);
  }
}

TEST(EngineSettle, UpdateIsValidDecidesAsTheSerialBody) {
  Rng rng(3);
  const float specials[] = {kNaN, kInf, -kInf, FLT_MAX, -FLT_MAX,
                            FLT_MIN, -0.0f, 1e30f};
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 1 + rng.next_u64() % 200;
    std::vector<float> global(n), updated(n);
    for (std::size_t i = 0; i < n; ++i) {
      global[i] = static_cast<float>(rng.normal());
      updated[i] = global[i] + static_cast<float>(rng.normal());
    }
    const std::size_t poisoned = rng.next_u64() % 3;
    for (std::size_t k = 0; k < poisoned; ++k) {
      const float v = specials[rng.next_u64() % std::size(specials)];
      (rng.uniform() < 0.5 ? updated : global)[rng.next_u64() % n] = v;
    }
    std::vector<float> delta(n);
    vec::diff(delta, updated, global);
    double norm_sq = 0.0;
    for (float v : delta) norm_sq += double(v) * double(v);
    const double at = std::isfinite(norm_sq) ? std::sqrt(norm_sq) : 1.0;
    for (const double bound :
         {0.0, std::nextafter(at, 0.0), at, std::nextafter(at, 2.0 * at),
          0.5 * at, 1e300}) {
      const bool want = serial_is_valid(delta, bound);
      ASSERT_EQ(update_is_valid(delta, bound), want)
          << "trial " << trial << " bound " << bound;
      ASSERT_EQ(update_is_valid(updated, global, bound), want)
          << "trial " << trial << " bound " << bound;
    }
  }
}

TEST(EngineSettle, OutcomeResetKeepsTheUpdateStorage) {
  TrainOutcome out;
  out.delivered = true;
  out.pre_aggregated = true;
  out.failure = FailureKind::Timeout;
  out.weight = 3.0;
  out.result.average_loss = 1.5;
  out.updated.assign(1000, 1.0f);
  const float* storage = out.updated.data();
  out.reset();
  EXPECT_FALSE(out.delivered);
  EXPECT_FALSE(out.pre_aggregated);
  EXPECT_EQ(out.failure, FailureKind::Crash);
  EXPECT_EQ(out.weight, 0.0);
  EXPECT_EQ(out.result.average_loss, LocalTrainResult{}.average_loss);
  EXPECT_TRUE(out.updated.empty());
  out.updated.resize(1000);
  EXPECT_EQ(out.updated.data(), storage);
}

}  // namespace
}  // namespace haccs::fl
