// Property-based test suites (parameterized gtest): invariants that must
// hold across whole input families, not just hand-picked cases.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

#include "src/clustering/dbscan.hpp"
#include "src/clustering/optics.hpp"
#include "src/core/haccs_selector.hpp"
#include "src/data/partition.hpp"
#include "src/nn/model.hpp"
#include "src/sim/latency.hpp"
#include "src/stats/histogram.hpp"
#include "src/stats/privacy.hpp"

namespace haccs {
namespace {

// ---- Hellinger distance is a metric on distributions -----------------

class HellingerProperty : public ::testing::TestWithParam<std::uint64_t> {};

std::vector<double> random_distribution(Rng& rng, std::size_t bins,
                                        double sparsity = 0.3) {
  std::vector<double> p(bins, 0.0);
  double total = 0.0;
  for (auto& v : p) {
    if (rng.uniform() > sparsity) {
      v = rng.uniform();
      total += v;
    }
  }
  if (total == 0.0) {
    p[rng.uniform_index(bins)] = 1.0;
    total = 1.0;
  }
  for (auto& v : p) v /= total;
  return p;
}

TEST_P(HellingerProperty, MetricAxiomsHold) {
  Rng rng(GetParam());
  const std::size_t bins = 2 + rng.uniform_index(60);
  const auto p = random_distribution(rng, bins);
  const auto q = random_distribution(rng, bins);
  const auto r = random_distribution(rng, bins);

  const double dpq = stats::hellinger_distance(p, q);
  const double dqp = stats::hellinger_distance(q, p);
  const double dpp = stats::hellinger_distance(p, p);
  const double dpr = stats::hellinger_distance(p, r);
  const double dqr = stats::hellinger_distance(q, r);

  EXPECT_NEAR(dpp, 0.0, 1e-12);                  // identity
  EXPECT_DOUBLE_EQ(dpq, dqp);                    // symmetry
  EXPECT_GE(dpq, 0.0);                           // non-negativity
  EXPECT_LE(dpq, 1.0 + 1e-12);                   // Eq. 4 bound
  EXPECT_LE(dpq, dpr + dqr + 1e-9);              // triangle inequality
}

TEST_P(HellingerProperty, ScaleInvariance) {
  // Counts and their normalized distribution give the same distance.
  Rng rng(GetParam() ^ 0xabcdef);
  const std::size_t bins = 2 + rng.uniform_index(30);
  auto p = random_distribution(rng, bins);
  auto q = random_distribution(rng, bins);
  auto p_scaled = p;
  auto q_scaled = q;
  const double sp = rng.uniform(1.0, 1000.0);
  const double sq = rng.uniform(1.0, 1000.0);
  for (auto& v : p_scaled) v *= sp;
  for (auto& v : q_scaled) v *= sq;
  EXPECT_NEAR(stats::hellinger_distance(p, q),
              stats::hellinger_distance(p_scaled, q_scaled), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HellingerProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---- Laplace mechanism noise scales with 1/epsilon -------------------

class LaplaceProperty : public ::testing::TestWithParam<double> {};

TEST_P(LaplaceProperty, EmpiricalVarianceMatchesEq5) {
  const double eps = GetParam();
  Rng rng(static_cast<std::uint64_t>(eps * 1e6) + 17);
  const int n = 30000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double noise = rng.laplace(0.0, 1.0 / eps);
    sum += noise;
    sum_sq += noise * noise;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  const double expected = stats::laplace_noise_variance(eps);
  EXPECT_NEAR(var / expected, 1.0, 0.15) << "eps=" << eps;
}

INSTANTIATE_TEST_SUITE_P(Epsilons, LaplaceProperty,
                         ::testing::Values(0.05, 0.1, 0.5, 1.0, 2.0));

// ---- Weighted-SRSWR sampling respects weights -------------------------

class SrswrProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SrswrProperty, EmpiricalFrequenciesTrackWeights) {
  Rng rng(GetParam());
  const std::size_t k = 2 + rng.uniform_index(6);
  std::vector<double> weights(k);
  double total = 0.0;
  for (auto& w : weights) {
    w = rng.uniform(0.1, 5.0);
    total += w;
  }
  const int draws = 30000;
  std::vector<int> counts(k, 0);
  for (int i = 0; i < draws; ++i) ++counts[rng.categorical(weights)];
  for (std::size_t i = 0; i < k; ++i) {
    const double expected = weights[i] / total;
    const double observed = static_cast<double>(counts[i]) / draws;
    EXPECT_NEAR(observed, expected, 0.02) << "slot " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SrswrProperty,
                         ::testing::Range<std::uint64_t>(100, 110));

// ---- Eq. 7 cluster weights -------------------------------------------

class Eq7Property : public ::testing::TestWithParam<double> {};

TEST_P(Eq7Property, WeightsSumAndBounds) {
  // For any rho, theta_i = rho*tau_i + (1-rho)*ACL_i/sum(ACL) with
  // tau_i in [0,1] and the loss terms summing to 1, so:
  //   sum(theta) = rho*sum(tau) + (1-rho)  and  0 <= theta_i <= 1.
  const double rho = GetParam();
  Rng rng(static_cast<std::uint64_t>(rho * 1000) + 3);
  const std::size_t n = 12;
  std::vector<int> labels(n);
  for (auto& l : labels) l = static_cast<int>(rng.uniform_index(4));
  core::HaccsConfig cfg;
  cfg.rho = rho;
  core::HaccsSelector selector(labels, cfg);

  std::vector<fl::ClientRuntimeInfo> view(n);
  for (std::size_t i = 0; i < n; ++i) {
    view[i].id = i;
    view[i].latency_s = rng.uniform(0.5, 10.0);
    view[i].num_samples = 50;
    view[i].last_loss = rng.uniform(0.1, 3.0);
    view[i].available = true;
  }
  const auto weights = selector.cluster_weights(view);

  // Recompute tau sum for the expected total.
  const std::size_t k = selector.num_clusters();
  std::vector<double> avg_latency(k, 0.0);
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t m : selector.clusters()[c]) {
      avg_latency[c] += view[m].latency_s;
    }
    avg_latency[c] /= static_cast<double>(selector.clusters()[c].size());
  }
  const double lmax = *std::max_element(avg_latency.begin(), avg_latency.end());
  double tau_sum = 0.0;
  for (double l : avg_latency) tau_sum += 1.0 - l / lmax;

  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  EXPECT_NEAR(total, rho * tau_sum + (1.0 - rho), 1e-9);
  for (double w : weights) {
    EXPECT_GE(w, -1e-12);
    EXPECT_LE(w, 1.0 + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Rhos, Eq7Property,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

// ---- Clustering is invariant to input permutation ---------------------

class PermutationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PermutationProperty, DbscanPartitionUnchangedByRelabeling) {
  Rng rng(GetParam());
  // Random clustered points on a line.
  std::vector<double> xs;
  const std::size_t blobs = 2 + rng.uniform_index(3);
  for (std::size_t b = 0; b < blobs; ++b) {
    const double center = static_cast<double>(b) * 10.0;
    const std::size_t size = 3 + rng.uniform_index(5);
    for (std::size_t i = 0; i < size; ++i) {
      xs.push_back(center + rng.normal(0.0, 0.2));
    }
  }
  const std::size_t n = xs.size();
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  rng.shuffle(perm);

  auto matrix_for = [&](const std::vector<double>& points) {
    return clustering::DistanceMatrix::build(
        points.size(), [&](std::size_t i, std::size_t j) {
          return std::abs(points[i] - points[j]);
        });
  };
  std::vector<double> shuffled(n);
  for (std::size_t i = 0; i < n; ++i) shuffled[i] = xs[perm[i]];

  const auto original =
      clustering::dbscan(matrix_for(xs), {.eps = 1.0, .min_pts = 2});
  const auto permuted =
      clustering::dbscan(matrix_for(shuffled), {.eps = 1.0, .min_pts = 2});

  // Co-membership must be identical under the permutation.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const bool together_orig =
          original[perm[i]] >= 0 && original[perm[i]] == original[perm[j]];
      const bool together_perm =
          permuted[i] >= 0 && permuted[i] == permuted[j];
      EXPECT_EQ(together_orig, together_perm);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PermutationProperty,
                         ::testing::Range<std::uint64_t>(40, 50));

// ---- Latency model monotonicity ---------------------------------------

class LatencyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LatencyProperty, MonotoneInEveryResource) {
  Rng rng(GetParam());
  sim::LatencyModel model({.model_bytes = 100000 + rng.uniform_index(900000),
                           .seconds_per_sample = rng.uniform(0.001, 0.02),
                           .local_epochs = 1 + rng.uniform_index(3)});
  sim::DeviceProfile p = sim::DeviceProfile::sample(rng);
  const std::size_t samples = 50 + rng.uniform_index(200);
  const double base = model.round_latency(p, samples);

  auto worse = p;
  worse.compute_multiplier = p.compute_multiplier * 1.5;
  EXPECT_GT(model.round_latency(worse, samples), base);

  worse = p;
  worse.bandwidth_mbps = p.bandwidth_mbps / 2.0;
  EXPECT_GT(model.round_latency(worse, samples), base);

  worse = p;
  worse.network_latency_s = p.network_latency_s * 2.0;
  EXPECT_GT(model.round_latency(worse, samples), base);

  EXPECT_GT(model.round_latency(p, samples * 2), base);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatencyProperty,
                         ::testing::Range<std::uint64_t>(200, 212));

// ---- Partitioner invariants across all layouts -------------------------

enum class Layout { Majority, GroupTable, Iid, KRandom, FeatureSkew, Dirichlet };

class PartitionProperty
    : public ::testing::TestWithParam<std::tuple<Layout, std::uint64_t>> {};

data::FederatedDataset build(Layout layout, std::uint64_t seed) {
  data::SyntheticImageConfig gcfg;
  gcfg.height = 6;
  gcfg.width = 6;
  data::SyntheticImageGenerator gen(gcfg);
  data::PartitionConfig cfg;
  cfg.num_clients = 20;
  cfg.min_samples = 30;
  cfg.max_samples = 60;
  cfg.test_samples = 10;
  cfg.style_brightness_stddev = 0.2;
  cfg.style_contrast_stddev = 0.1;
  Rng rng(seed);
  switch (layout) {
    case Layout::Majority: return data::partition_majority_label(gen, cfg, rng);
    case Layout::GroupTable: return data::partition_group_table(gen, cfg, rng);
    case Layout::Iid: return data::partition_iid(gen, cfg, rng);
    case Layout::KRandom:
      return data::partition_k_random_labels(gen, cfg, 5, rng);
    case Layout::FeatureSkew:
      return data::partition_feature_skew(gen, cfg, 45.0, rng);
    case Layout::Dirichlet: return data::partition_dirichlet(gen, cfg, 0.5, rng);
  }
  throw std::logic_error("bad layout");
}

TEST_P(PartitionProperty, StructuralInvariantsHold) {
  const auto [layout, seed] = GetParam();
  const auto fed = build(layout, seed);

  ASSERT_EQ(fed.num_clients(), 20u);
  ASSERT_EQ(fed.true_group.size(), 20u);
  ASSERT_EQ(fed.rotation.size(), 20u);
  ASSERT_EQ(fed.true_label_distribution.size(), 20u);
  ASSERT_EQ(fed.style.size(), 20u);

  for (std::size_t i = 0; i < fed.num_clients(); ++i) {
    const auto& client = fed.clients[i];
    EXPECT_GE(client.train.size(), 30u);
    EXPECT_LE(client.train.size(), 60u);
    EXPECT_EQ(client.test.size(), 10u);
    EXPECT_EQ(client.train.num_classes(), fed.num_classes);

    // Mixture is a distribution; observed labels only where mixture > 0.
    const auto& mix = fed.true_label_distribution[i];
    double total = 0.0;
    for (double p : mix) {
      EXPECT_GE(p, 0.0);
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    const auto counts = client.train.label_counts();
    for (std::size_t c = 0; c < counts.size(); ++c) {
      if (mix[c] == 0.0) {
        EXPECT_EQ(counts[c], 0.0) << "client " << i;
      }
    }

    // Same-group clients share identical mixtures.
    for (std::size_t j = i + 1; j < fed.num_clients(); ++j) {
      if (fed.true_group[i] == fed.true_group[j]) {
        EXPECT_EQ(fed.true_label_distribution[i],
                  fed.true_label_distribution[j]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, PartitionProperty,
    ::testing::Combine(::testing::Values(Layout::Majority, Layout::GroupTable,
                                         Layout::Iid, Layout::KRandom,
                                         Layout::FeatureSkew,
                                         Layout::Dirichlet),
                       ::testing::Values(1u, 2u, 3u)));

// ---- Model parameter round-trips under random architectures ------------

class ModelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModelProperty, GetSetParametersIsIdentity) {
  Rng rng(GetParam());
  std::vector<std::size_t> hidden;
  const std::size_t depth = rng.uniform_index(3);
  for (std::size_t i = 0; i < depth; ++i) {
    hidden.push_back(4 + rng.uniform_index(28));
  }
  const std::size_t input = 2 + rng.uniform_index(30);
  const std::size_t classes = 2 + rng.uniform_index(8);
  nn::Sequential model = nn::make_mlp(input, hidden, classes, rng);

  const auto params = model.get_parameters();
  Tensor x({3, input});
  for (auto& v : x.data()) v = static_cast<float>(rng.normal());
  const Tensor before = model.forward(x);
  model.set_parameters(params);
  const Tensor after = model.forward(x);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelProperty,
                         ::testing::Range<std::uint64_t>(300, 315));

}  // namespace
}  // namespace haccs
