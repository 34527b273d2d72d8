// Tests for src/common: RNG determinism and distributions, thread pool,
// flags, and table formatting.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <set>
#include <thread>

#include "src/common/flags.hpp"
#include "src/common/rng.hpp"
#include "src/common/table.hpp"
#include "src/common/threadpool.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"

namespace haccs {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIndependence) {
  Rng parent(7);
  Rng child = parent.fork();
  // Child continues deterministically and does not mirror the parent.
  Rng parent2(7);
  Rng child2 = parent2.fork();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(child.next_u64(), child2.next_u64());
}

TEST(Rng, UniformIndexInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform_index(17), 17u);
  }
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIndexZeroThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInHalfOpenUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NormalMomentsApproximate) {
  Rng rng(13);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, LaplaceVarianceMatchesTheory) {
  // Var[Laplace(0, b)] = 2 b^2 — this is Eq. 5 with b = 1/eps.
  Rng rng(17);
  const double b = 2.5;
  double sum = 0.0, sum_sq = 0.0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.laplace(0.0, b);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.1);
  EXPECT_NEAR(var, 2.0 * b * b, 0.8);
}

TEST(Rng, LaplaceRejectsNonpositiveScale) {
  Rng rng(1);
  EXPECT_THROW(rng.laplace(0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(rng.laplace(0.0, -1.0), std::invalid_argument);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(19);
  const std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.4);
}

TEST(Rng, CategoricalRejectsBadWeights) {
  Rng rng(1);
  const std::vector<double> zero = {0.0, 0.0};
  const std::vector<double> negative = {1.0, -0.5};
  EXPECT_THROW(rng.categorical(zero), std::invalid_argument);
  EXPECT_THROW(rng.categorical(negative), std::invalid_argument);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(23);
  const auto sample = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), std::invalid_argument);
}

TEST(Rng, SampleWithReplacementSize) {
  Rng rng(29);
  const std::vector<double> w = {1.0, 2.0};
  EXPECT_EQ(rng.sample_with_replacement(w, 25).size(), 25u);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

// discard_normals(n) must leave the generator bit-for-bit where n normal()
// calls would: the data generator's parallel replay depends on it.
TEST(Rng, DiscardNormalsMatchesNormal) {
  const auto expect_same_state = [](const Rng& a, const Rng& b,
                                    const std::string& where) {
    const Rng::State x = a.state(), y = b.state();
    for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(x.s[i], y.s[i]) << where;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.cached_normal),
              std::bit_cast<std::uint64_t>(y.cached_normal))
        << where;
    EXPECT_EQ(x.has_cached_normal, y.has_cached_normal) << where;
  };
  // s[1] == 0 makes the first raw word 0, so the first pair goes through
  // Box-Muller's u1 > 0 rejection.
  Rng::State rejecting;
  rejecting.s[0] = 0x9e3779b97f4a7c15ULL;
  rejecting.s[2] = 0xbf58476d1ce4e5b9ULL;
  rejecting.s[3] = 0x94d049bb133111ebULL;
  for (int start = 0; start < 3; ++start) {
    for (std::size_t n = 0; n <= 9; ++n) {
      Rng drawn(41), skipped(41);
      if (start == 1) {  // begin on the cached half of a pair
        drawn.normal();
        skipped.normal();
      } else if (start == 2) {
        drawn.set_state(rejecting);
        skipped.set_state(rejecting);
      }
      for (std::size_t k = 0; k < n; ++k) drawn.normal();
      skipped.discard_normals(n);
      const std::string where =
          "start " + std::to_string(start) + ", n " + std::to_string(n);
      expect_same_state(drawn, skipped, where);
      EXPECT_EQ(drawn.normal(), skipped.normal()) << where;
    }
  }
}

TEST(ThreadPool, InlineModeRunsTasks) {
  ThreadPool pool(0);
  std::atomic<int> count{0};
  pool.submit([&] { ++count; }).get();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  parallel_for(pool, 0, 257, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  parallel_for(pool, 5, 5, [](std::size_t) { FAIL(); });
}

TEST(ParallelFor, RethrowsWorkerException) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(pool, 0, 100,
                            [](std::size_t i) {
                              if (i == 63) throw std::runtime_error("x");
                            }),
               std::runtime_error);
}

// The calling thread runs chunk 0 itself: on a one-worker pool the two
// indices of a two-element range run at the same time, one on the caller
// and one on the worker. With an idle caller both would queue on the
// single worker and the rendezvous would time out.
TEST(ParallelFor, CallerRunsAChunk) {
  ThreadPool pool(1);
  std::atomic<int> arrived{0};
  std::atomic<int> met{0};
  std::thread::id caller_chunk;
  parallel_for(pool, 0, 2, [&](std::size_t i) {
    if (i == 0) caller_chunk = std::this_thread::get_id();
    arrived.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (arrived.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    if (arrived.load() == 2) met.fetch_add(1);
  });
  EXPECT_EQ(met.load(), 2);
  EXPECT_EQ(caller_chunk, std::this_thread::get_id());
}

// A parallel_for nested in the caller's chunk runs inline on the caller, as
// it does on a worker, and enqueues nothing.
TEST(ParallelFor, NestedCallInCallerChunkRunsInline) {
  obs::set_metrics_enabled(true);
  auto& tasks = obs::Registry::global().counter("threadpool_tasks_total");
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> inner(16);
  std::uint64_t enqueued = 0;
  parallel_for(pool, 0, 2, [&](std::size_t i) {
    if (i != 0) return;
    const std::uint64_t before = tasks.value();
    parallel_for(pool, 0, inner.size(), [&](std::size_t j) {
      inner[j] = std::this_thread::get_id();
    });
    enqueued = tasks.value() - before;
  });
  obs::set_metrics_enabled(false);
  EXPECT_EQ(enqueued, 0u);
  for (const auto& id : inner) EXPECT_EQ(id, caller);
}

TEST(Flags, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=2.5",  "--name", "value",
                        "--flag", "--no-thing", "pos1"};
  Flags flags(7, argv);
  EXPECT_DOUBLE_EQ(flags.get_double("alpha", 0.0), 2.5);
  EXPECT_EQ(flags.get_string("name", ""), "value");
  EXPECT_TRUE(flags.get_bool("flag", false));
  EXPECT_FALSE(flags.get_bool("thing", true));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos1");
}

TEST(Flags, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags flags(1, argv);
  EXPECT_EQ(flags.get_int("rounds", 42), 42);
  EXPECT_FALSE(flags.has("rounds"));
}

TEST(Flags, RejectsMalformedValues) {
  const char* argv[] = {"prog",          "--n=abc",      "--rounds=2x",
                        "--workers=-1",  "--clients=",   "--rate=0.5x",
                        "--per-round=3"};
  Flags flags(7, argv);
  EXPECT_THROW(flags.get_int("n", 0), std::invalid_argument);
  // A numeric prefix is not a number: the whole value must parse.
  EXPECT_THROW(flags.get_int("rounds", 0), std::invalid_argument);
  EXPECT_THROW(flags.get_count("rounds", 0), std::invalid_argument);
  EXPECT_THROW(flags.get_int("clients", 0), std::invalid_argument);
  EXPECT_THROW(flags.get_double("rate", 0.0), std::invalid_argument);
  // Counts refuse negatives, naming the flag.
  EXPECT_EQ(flags.get_int("workers", 0), -1);
  try {
    flags.get_count("workers", 1);
    ADD_FAILURE() << "--workers=-1 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--workers"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(flags.get_count("per-round", 0), 3u);
  EXPECT_EQ(flags.get_count("absent", 7), 7u);
}

TEST(Flags, CheckUnusedDetectsTypos) {
  const char* argv[] = {"prog", "--truly-unknown=1"};
  Flags flags(2, argv);
  EXPECT_THROW(flags.check_unused(), std::invalid_argument);
}

TEST(Table, FormatsAlignedOutput) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2.50"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

}  // namespace
}  // namespace haccs
