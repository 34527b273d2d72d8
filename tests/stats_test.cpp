// Tests for src/stats: histograms, Hellinger distance properties (paper
// Eqs. 3-4), the two distribution summaries, the Laplace mechanism (Eq. 5),
// and the clustering / CI metrics.
#include <gtest/gtest.h>

#include <cmath>

#include "src/data/dataset.hpp"
#include "src/stats/histogram.hpp"
#include "src/stats/metrics.hpp"
#include "src/stats/privacy.hpp"
#include "src/stats/summary.hpp"
#include "tests/helpers.hpp"

namespace haccs::stats {
namespace {

TEST(HistogramTest, CountHistogramAccumulates) {
  Histogram h(4);
  h.add_count(0);
  h.add_count(0, 2.0);
  h.add_count(3);
  EXPECT_DOUBLE_EQ(h.counts()[0], 3.0);
  EXPECT_DOUBLE_EQ(h.counts()[3], 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
  EXPECT_THROW(h.add_count(4), std::out_of_range);
}

TEST(HistogramTest, ValueBinning) {
  Histogram h(4, 0.0, 4.0);
  // Bins 0 and 3, then clamps to bins 0 and 3.
  h.observe_all(std::vector<float>{0.5f, 3.99f, -10.0f, 10.0f});
  EXPECT_DOUBLE_EQ(h.counts()[0], 2.0);
  EXPECT_DOUBLE_EQ(h.counts()[3], 2.0);
}

TEST(HistogramTest, ObserveRequiresValueBinned) {
  Histogram h(4);
  EXPECT_THROW(h.observe_all(std::vector<float>{1.0f}), std::logic_error);
}

TEST(HistogramTest, NormalizedSumsToOneOrZero) {
  // Every distance normalizes counts through sqrt_probabilities.
  Histogram h(3);
  std::vector<double> row(3, 1.0);
  sqrt_probabilities(h.counts(), row);
  EXPECT_EQ(row, (std::vector<double>{0, 0, 0}));  // empty => zero
  h.add_count(1, 2.0);
  h.add_count(2, 2.0);
  sqrt_probabilities(h.counts(), row);
  EXPECT_DOUBLE_EQ(row[1] * row[1], 0.5);
  EXPECT_DOUBLE_EQ(row[2] * row[2], 0.5);
}

TEST(HistogramTest, ClampNonnegative) {
  Histogram h(2);
  h.set_counts({-1.5, 2.0});
  h.clamp_nonnegative();
  EXPECT_DOUBLE_EQ(h.counts()[0], 0.0);
  EXPECT_DOUBLE_EQ(h.counts()[1], 2.0);
}

// ---- Hellinger distance: Eq. 3 / Eq. 4 properties ----

TEST(Hellinger, IdenticalDistributionsGiveZero) {
  const std::vector<double> p = {0.25, 0.25, 0.5};
  EXPECT_NEAR(hellinger_distance(p, p), 0.0, 1e-12);
}

TEST(Hellinger, DisjointSupportsGiveOne) {
  const std::vector<double> p = {1.0, 0.0};
  const std::vector<double> q = {0.0, 1.0};
  EXPECT_NEAR(hellinger_distance(p, q), 1.0, 1e-12);
}

TEST(Hellinger, Symmetric) {
  const std::vector<double> p = {0.7, 0.2, 0.1};
  const std::vector<double> q = {0.1, 0.3, 0.6};
  EXPECT_DOUBLE_EQ(hellinger_distance(p, q), hellinger_distance(q, p));
}

TEST(Hellinger, BoundedAndToleratesZeros) {
  const std::vector<double> p = {0.9, 0.1, 0.0, 0.0};
  const std::vector<double> q = {0.0, 0.0, 0.5, 0.5};
  const double d = hellinger_distance(p, q);
  EXPECT_GE(d, 0.0);
  EXPECT_LE(d, 1.0);
}

TEST(Hellinger, NormalizesUnnormalizedInput) {
  const std::vector<double> counts_a = {30, 10};   // = {0.75, 0.25}
  const std::vector<double> counts_b = {3, 1};
  EXPECT_NEAR(hellinger_distance(counts_a, counts_b), 0.0, 1e-12);
}

TEST(Hellinger, HandComputedValue) {
  // H({1,0},{0.5,0.5}) = sqrt(1 - 1/sqrt(2)) (via 1 - BC identity).
  const std::vector<double> p = {1.0, 0.0};
  const std::vector<double> q = {0.5, 0.5};
  EXPECT_NEAR(hellinger_distance(p, q), std::sqrt(1.0 - std::sqrt(0.5)), 1e-12);
}

TEST(Hellinger, ArityMismatchThrows) {
  const std::vector<double> p = {1.0};
  const std::vector<double> q = {0.5, 0.5};
  EXPECT_THROW(hellinger_distance(p, q), std::invalid_argument);
}

// ---- Summaries ----

data::Dataset tiny_dataset() {
  data::Dataset ds({2}, 3);
  add_sample(ds, std::vector<float>{0.0f, 1.0f}, 0);
  add_sample(ds, std::vector<float>{0.5f, 1.5f}, 0);
  add_sample(ds, std::vector<float>{2.0f, 3.0f}, 2);
  return ds;
}

TEST(Summary, ResponseCountsLabels) {
  const auto ds = tiny_dataset();
  const auto s = summarize_response(ds);
  EXPECT_DOUBLE_EQ(s.label_counts.counts()[0], 2.0);
  EXPECT_DOUBLE_EQ(s.label_counts.counts()[1], 0.0);
  EXPECT_DOUBLE_EQ(s.label_counts.counts()[2], 1.0);
  EXPECT_EQ(summary_size(s), 3u);
}

TEST(Summary, ConditionalBinsFeaturesPerLabel) {
  const auto ds = tiny_dataset();
  ConditionalSummaryConfig cfg{.bins = 8, .lo = -4.0, .hi = 4.0};
  const auto s = summarize_conditional(ds, cfg);
  ASSERT_EQ(s.per_label.size(), 3u);
  EXPECT_DOUBLE_EQ(s.per_label[0].total(), 4.0);  // 2 samples x 2 features
  EXPECT_DOUBLE_EQ(s.per_label[1].total(), 0.0);  // label absent
  EXPECT_DOUBLE_EQ(s.per_label[2].total(), 2.0);
  EXPECT_EQ(summary_size(s), 24u);  // Θ(c·p): 3 labels x 8 bins
}

TEST(Summary, DistanceZeroForIdenticalData) {
  const auto a = summarize_response(tiny_dataset());
  const auto b = summarize_response(tiny_dataset());
  EXPECT_NEAR(distance(a, b), 0.0, 1e-12);
}

TEST(Summary, KindParsing) {
  EXPECT_EQ(parse_summary_kind("P(y)"), SummaryKind::Response);
  EXPECT_EQ(parse_summary_kind("py"), SummaryKind::Response);
  EXPECT_EQ(parse_summary_kind("P(X|y)"), SummaryKind::Conditional);
  EXPECT_EQ(parse_summary_kind("pxy"), SummaryKind::Conditional);
  EXPECT_THROW(parse_summary_kind("nope"), std::invalid_argument);
  EXPECT_EQ(to_string(SummaryKind::Response), "P(y)");
  EXPECT_EQ(to_string(SummaryKind::Conditional), "P(X|y)");
}

// ---- Laplace mechanism ----

TEST(Privacy, VarianceFormulaMatchesEq5) {
  EXPECT_DOUBLE_EQ(laplace_noise_variance(0.1), 200.0);
  EXPECT_DOUBLE_EQ(laplace_noise_variance(1.0), 2.0);
  EXPECT_THROW(laplace_noise_variance(0.0), std::invalid_argument);
}

TEST(Privacy, NoiseEmpiricalVarianceTracksEpsilon) {
  Rng rng(61);
  const double epsilon = 0.5;
  const int n = 20000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    Histogram h(1);
    h.add_count(0, 100.0);
    // Measure noise before clamping by using a large baseline count.
    privatize_histogram(h, epsilon, rng);
    const double noise = h.counts()[0] - 100.0;
    sum += noise;
    sum_sq += noise * noise;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(var, laplace_noise_variance(epsilon), 1.0);
}

TEST(Privacy, DisabledConfigIsNoop) {
  const auto ds = tiny_dataset();
  auto s = summarize_response(ds);
  Rng rng(3);
  const auto out = privatize(s, PrivacyConfig::none(), rng);
  EXPECT_EQ(out.label_counts.counts()[0], s.label_counts.counts()[0]);
  EXPECT_FALSE(PrivacyConfig::none().enabled());
  EXPECT_TRUE(PrivacyConfig{0.1}.enabled());
}

TEST(Privacy, NoisedCountsStayNonnegative) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    Histogram h(4);
    h.add_count(0, 1.0);  // tiny counts + strong noise
    privatize_histogram(h, 0.01, rng);
    for (double c : h.counts()) EXPECT_GE(c, 0.0);
  }
}

TEST(Privacy, NegativeNoisedBinsClampToZeroExactly) {
  // Tiny counts + strong Laplace noise (scale 1/eps = 20) push bins negative
  // before the clamp. Replaying the identical noise stream shows which bins
  // went negative pre-clamp: those must land on exactly 0, the rest must
  // carry the raw noised value untouched.
  const double epsilon = 0.05;
  Histogram h(6);
  for (std::size_t b = 0; b < 6; ++b) h.add_count(b, 1.0);
  Rng rng(42), replay(42);
  privatize_histogram(h, epsilon, rng);
  bool clamped = false;
  for (std::size_t b = 0; b < 6; ++b) {
    const double raw = 1.0 + replay.laplace(0.0, 1.0 / epsilon);
    if (raw < 0.0) {
      clamped = true;
      EXPECT_EQ(h.counts()[b], 0.0) << "bin " << b;
    } else {
      EXPECT_DOUBLE_EQ(h.counts()[b], raw) << "bin " << b;
    }
  }
  // Seed chosen so the scenario actually exercises the clamp.
  EXPECT_TRUE(clamped);
}

TEST(Privacy, PrivatizedSummariesKeepDistancesValid) {
  // Downstream, summaries are renormalized inside the distance computation;
  // a bin the clamp left at zero must not break the [0, 1] Hellinger bound
  // or produce NaN.
  const auto clean = summarize_response(tiny_dataset());
  Rng rng(11);
  for (int rep = 0; rep < 100; ++rep) {
    const auto a = privatize(clean, PrivacyConfig{0.02}, rng);
    const auto b = privatize(clean, PrivacyConfig{0.02}, rng);
    for (double c : a.label_counts.counts()) EXPECT_GE(c, 0.0);
    const double d = distance(a, b);
    EXPECT_TRUE(std::isfinite(d));
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0 + 1e-12);
  }
}

TEST(Privacy, SmallEpsilonDistortsMore) {
  // With the same seed stream, distance from the true histogram should grow
  // as epsilon shrinks (statistically, over repetitions).
  const auto ds = tiny_dataset();
  const auto clean = summarize_response(ds);
  double distortion_weak = 0.0, distortion_strong = 0.0;
  for (int rep = 0; rep < 50; ++rep) {
    Rng rng_weak(100 + rep), rng_strong(100 + rep);
    const auto weak = privatize(clean, PrivacyConfig{1.0}, rng_weak);
    const auto strong = privatize(clean, PrivacyConfig{0.01}, rng_strong);
    distortion_weak += distance(clean, weak);
    distortion_strong += distance(clean, strong);
  }
  EXPECT_GT(distortion_strong, distortion_weak);
}

TEST(Privacy, ConditionalSummaryNoisedPerBin) {
  const auto ds = tiny_dataset();
  ConditionalSummaryConfig cfg{.bins = 4, .lo = -4.0, .hi = 4.0};
  const auto clean = summarize_conditional(ds, cfg);
  Rng rng(7);
  const auto noised = privatize(clean, PrivacyConfig{0.05}, rng);
  // With eps = 0.05 (scale 20) at least one bin must differ.
  bool any_diff = false;
  for (std::size_t l = 0; l < clean.per_label.size(); ++l) {
    for (std::size_t b = 0; b < clean.per_label[l].bins(); ++b) {
      if (clean.per_label[l].counts()[b] != noised.per_label[l].counts()[b]) {
        any_diff = true;
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

// ---- Clustering metrics ----

TEST(Metrics, PerfectClusteringScoresOne) {
  const std::vector<int> truth = {0, 0, 1, 1, 2, 2};
  const std::vector<int> pred = {5, 5, 3, 3, 9, 9};  // same partition, new ids
  const auto s = pairwise_clustering_scores(pred, truth);
  EXPECT_DOUBLE_EQ(s.precision, 1.0);
  EXPECT_DOUBLE_EQ(s.recall, 1.0);
  EXPECT_DOUBLE_EQ(s.f1, 1.0);
  EXPECT_DOUBLE_EQ(s.rand_index, 1.0);
  EXPECT_DOUBLE_EQ(exact_cluster_recovery(pred, truth), 1.0);
}

TEST(Metrics, MergedClustersLosePrecision) {
  const std::vector<int> truth = {0, 0, 1, 1};
  const std::vector<int> pred = {0, 0, 0, 0};  // merged everything
  const auto s = pairwise_clustering_scores(pred, truth);
  EXPECT_LT(s.precision, 1.0);
  EXPECT_DOUBLE_EQ(s.recall, 1.0);
  EXPECT_DOUBLE_EQ(exact_cluster_recovery(pred, truth), 0.0);
}

TEST(Metrics, NoisePointsAreSingletons) {
  const std::vector<int> truth = {0, 0, 1};
  const std::vector<int> pred = {0, 0, -1};
  const auto s = pairwise_clustering_scores(pred, truth);
  EXPECT_DOUBLE_EQ(s.precision, 1.0);
  EXPECT_DOUBLE_EQ(s.recall, 1.0);
  // Singleton ground-truth group {2} is recovered by the noise singleton.
  EXPECT_DOUBLE_EQ(exact_cluster_recovery(pred, truth), 1.0);
}

TEST(Metrics, PartialRecoveryCountsGroups) {
  const std::vector<int> truth = {0, 0, 1, 1};
  const std::vector<int> pred = {2, 2, 3, 4};  // group 0 recovered, 1 split
  EXPECT_DOUBLE_EQ(exact_cluster_recovery(pred, truth), 0.5);
}

TEST(Metrics, MeanCi95) {
  const std::vector<double> vals = {1.0, 1.0, 1.0};
  const auto r = mean_ci95(vals);
  EXPECT_DOUBLE_EQ(r.mean, 1.0);
  EXPECT_DOUBLE_EQ(r.margin, 0.0);

  const std::vector<double> one = {5.0};
  EXPECT_DOUBLE_EQ(mean_ci95(one).margin, 0.0);

  const std::vector<double> spread = {0.0, 10.0};
  EXPECT_GT(mean_ci95(spread).margin, 0.0);

  EXPECT_THROW(mean_ci95({}), std::invalid_argument);
}

}  // namespace
}  // namespace haccs::stats
