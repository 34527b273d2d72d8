// Tests for the quantile summary kind and the Gaussian privacy mechanism.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/core/pipeline.hpp"
#include "src/stats/metrics.hpp"
#include "src/stats/privacy.hpp"
#include "src/stats/summary.hpp"
#include "tests/helpers.hpp"

namespace haccs::stats {
namespace {

data::Dataset two_label_dataset(double offset_for_label1 = 0.0) {
  data::Dataset ds({4}, 3);
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    std::vector<float> a(4), b(4);
    for (std::size_t j = 0; j < 4; ++j) {
      a[j] = static_cast<float>(rng.normal(0.0, 1.0));
      b[j] = static_cast<float>(rng.normal(offset_for_label1, 1.0));
    }
    add_sample(ds, a, 0);
    add_sample(ds, b, 1);
  }
  return ds;
}

TEST(QuantileSummary, QuantilesAreSortedAndInRange) {
  const auto ds = two_label_dataset();
  QuantileSummaryConfig cfg;
  const auto s = summarize_quantiles(ds, cfg);
  ASSERT_EQ(s.per_label.size(), 3u);
  EXPECT_EQ(s.per_label[0].size(), 9u);
  EXPECT_TRUE(s.per_label[2].empty());  // label 2 absent
  EXPECT_DOUBLE_EQ(s.mass[2], 0.0);
  EXPECT_DOUBLE_EQ(s.mass[0], 200.0);  // 50 samples x 4 features
  for (std::size_t q = 1; q < s.per_label[0].size(); ++q) {
    EXPECT_LE(s.per_label[0][q - 1], s.per_label[0][q]);
  }
  for (double q : s.per_label[0]) {
    EXPECT_GE(q, cfg.lo);
    EXPECT_LE(q, cfg.hi);
  }
  // Median of a standard normal sample is near 0.
  EXPECT_NEAR(s.per_label[0][4], 0.0, 0.3);
}

TEST(QuantileSummary, RejectsBadConfig) {
  const auto ds = two_label_dataset();
  QuantileSummaryConfig zero;
  zero.num_quantiles = 0;
  EXPECT_THROW(summarize_quantiles(ds, zero), std::invalid_argument);
  QuantileSummaryConfig inverted;
  inverted.lo = 1.0;
  inverted.hi = -1.0;
  EXPECT_THROW(summarize_quantiles(ds, inverted), std::invalid_argument);
}

TEST(QuantileSummary, DistanceSeparatesShiftedDistributions) {
  QuantileSummaryConfig cfg;
  const auto same_a = summarize_quantiles(two_label_dataset(0.0), cfg);
  const auto same_b = summarize_quantiles(two_label_dataset(0.0), cfg);
  const auto shifted = summarize_quantiles(two_label_dataset(2.0), cfg);

  const double d_same = quantile_distance(same_a, same_b, cfg);
  const double d_shifted = quantile_distance(same_a, shifted, cfg);
  EXPECT_NEAR(d_same, 0.0, 1e-9);  // identical seeds -> identical sketches
  EXPECT_GT(d_shifted, 0.05);
  EXPECT_LE(d_shifted, 1.0);
  // Symmetry.
  EXPECT_DOUBLE_EQ(quantile_distance(shifted, same_a, cfg), d_shifted);
}

TEST(QuantileSummary, AbsentLabelContributesMaxDistance) {
  QuantileSummaryConfig cfg;
  data::Dataset only0({2}, 2), only1({2}, 2);
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    const std::vector<float> v = {static_cast<float>(rng.normal()),
                                  static_cast<float>(rng.normal())};
    add_sample(only0, v, 0);
    add_sample(only1, v, 1);
  }
  const auto a = summarize_quantiles(only0, cfg);
  const auto b = summarize_quantiles(only1, cfg);
  EXPECT_DOUBLE_EQ(quantile_distance(a, b, cfg), 1.0);
}

TEST(QuantileSummary, PrivatizationPreservesOrderAndRange) {
  const auto ds = two_label_dataset();
  QuantileSummaryConfig cfg;
  const auto clean = summarize_quantiles(ds, cfg);
  Rng rng(9);
  const auto noised = privatize(clean, cfg, PrivacyConfig{0.5}, rng);
  for (std::size_t c = 0; c < noised.per_label.size(); ++c) {
    for (std::size_t q = 0; q < noised.per_label[c].size(); ++q) {
      EXPECT_GE(noised.per_label[c][q], cfg.lo);
      EXPECT_LE(noised.per_label[c][q], cfg.hi);
      if (q > 0) {
        EXPECT_LE(noised.per_label[c][q - 1], noised.per_label[c][q]);
      }
    }
  }
  // Noise actually applied.
  bool any_diff = false;
  for (std::size_t q = 0; q < clean.per_label[0].size(); ++q) {
    any_diff |= clean.per_label[0][q] != noised.per_label[0][q];
  }
  EXPECT_TRUE(any_diff);
}

TEST(QuantileSummary, EndToEndClusteringRecoversGroups) {
  data::SyntheticImageConfig gcfg;
  gcfg.classes = 10;
  gcfg.height = 8;
  gcfg.width = 8;
  data::SyntheticImageGenerator gen(gcfg);
  Rng rng(11);
  const auto fed = data::partition_two_per_label(gen, 300, 10, rng);
  core::HaccsConfig cfg;
  cfg.summary = SummaryKind::Quantile;
  const auto labels = core::cluster_clients(fed, cfg);
  EXPECT_GE(exact_cluster_recovery(labels, fed.true_group), 0.8);
}

TEST(QuantileSummary, KindParses) {
  EXPECT_EQ(parse_summary_kind("quantile"), SummaryKind::Quantile);
  EXPECT_EQ(parse_summary_kind("Q(X|y)"), SummaryKind::Quantile);
  EXPECT_EQ(to_string(SummaryKind::Quantile), "Q(X|y)");
}

// ---- Gaussian mechanism ----

TEST(GaussianMechanism, StddevFormula) {
  // sigma = sqrt(2 ln(1.25/delta)) * sens / eps
  const double sigma = gaussian_noise_stddev(1.0, 1e-5, 1.0);
  EXPECT_NEAR(sigma, std::sqrt(2.0 * std::log(1.25e5)), 1e-9);
  EXPECT_THROW(gaussian_noise_stddev(0.0, 1e-5), std::invalid_argument);
  EXPECT_THROW(gaussian_noise_stddev(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(gaussian_noise_stddev(1.0, 1.0), std::invalid_argument);
}

TEST(GaussianMechanism, EmpiricalVarianceMatches) {
  PrivacyConfig cfg;
  cfg.epsilon = 0.5;
  cfg.delta = 1e-4;
  cfg.mechanism = NoiseMechanism::Gaussian;
  const double sigma = gaussian_noise_stddev(cfg.epsilon, cfg.delta);
  Rng rng(13);
  const int n = 20000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    Histogram h(1);
    h.add_count(0, 10000.0);  // large baseline avoids the clamp
    privatize_histogram(h, cfg, rng);
    const double noise = h.counts()[0] - 10000.0;
    sum += noise;
    sum_sq += noise * noise;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(var / (sigma * sigma), 1.0, 0.1);
}

TEST(GaussianMechanism, ResponseSummaryEndToEnd) {
  data::Dataset ds({1}, 4);
  const std::vector<float> v = {0.0f};
  for (int i = 0; i < 100; ++i) add_sample(ds, v, i % 4);
  const auto clean = summarize_response(ds);

  PrivacyConfig cfg;
  cfg.epsilon = 0.5;
  cfg.mechanism = NoiseMechanism::Gaussian;
  Rng rng(17);
  const auto noised = privatize(clean, cfg, rng);
  bool any_diff = false;
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_GE(noised.label_counts.counts()[b], 0.0);
    any_diff |= noised.label_counts.counts()[b] != clean.label_counts.counts()[b];
  }
  EXPECT_TRUE(any_diff);
}

TEST(GaussianMechanism, ClusteringSurvivesModerateNoise) {
  data::SyntheticImageConfig gcfg;
  gcfg.classes = 10;
  gcfg.height = 8;
  gcfg.width = 8;
  data::SyntheticImageGenerator gen(gcfg);
  Rng rng(19);
  const auto fed = data::partition_two_per_label(gen, 500, 10, rng);
  core::HaccsConfig cfg;
  cfg.privacy.epsilon = 0.5;
  cfg.privacy.mechanism = NoiseMechanism::Gaussian;
  cfg.privacy.delta = 1e-5;
  const auto labels = core::cluster_clients(fed, cfg);
  EXPECT_GE(exact_cluster_recovery(labels, fed.true_group), 0.9);
}

}  // namespace
}  // namespace haccs::stats
