// Second property suite: invariants of the extension subsystems —
// compression, quantile sketches, the async engine, stratified coverage,
// and the gradient sketch's distance preservation.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <numeric>
#include <set>

#include "src/core/gradient_selector.hpp"
#include "src/core/haccs_system.hpp"
#include "src/core/stratified_selector.hpp"
#include "src/fl/async_engine.hpp"
#include "src/fl/compression.hpp"
#include "src/select/random_selector.hpp"
#include "src/stats/summary.hpp"
#include "tests/helpers.hpp"

namespace haccs {
namespace {

// ---- Compression properties --------------------------------------------

class CompressionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompressionProperty, SignalConservationWithErrorFeedback) {
  // signal = compressed + residual, exactly, every round, for both
  // compressors (the defining algebra of error feedback).
  Rng rng(GetParam());
  const std::size_t n = 32 + rng.uniform_index(200);
  for (auto kind : {fl::CompressionKind::TopK, fl::CompressionKind::Int8}) {
    fl::CompressionConfig cfg;
    cfg.kind = kind;
    cfg.topk_fraction = 0.25;
    std::vector<float> residual;
    std::vector<float> prev_residual;
    for (int round = 0; round < 4; ++round) {
      std::vector<float> update(n);
      for (auto& v : update) v = static_cast<float>(rng.normal());
      prev_residual = residual;
      if (prev_residual.empty()) prev_residual.assign(n, 0.0f);
      const auto out = fl::compress_update(update, cfg, residual);
      for (std::size_t i = 0; i < n; ++i) {
        const float signal = update[i] + prev_residual[i];
        EXPECT_NEAR(out.dense[i] + residual[i], signal, 1e-4f)
            << "kind " << static_cast<int>(kind) << " idx " << i;
      }
    }
  }
}

TEST_P(CompressionProperty, TopKWireBytesShrinkWithFraction) {
  Rng rng(GetParam() ^ 0x77);
  const std::size_t n = 100 + rng.uniform_index(10000);
  fl::CompressionConfig small, large;
  small.kind = large.kind = fl::CompressionKind::TopK;
  small.topk_fraction = 0.05;
  // Each kept coordinate ships 8 bytes vs 4 dense, so only fractions below
  // 0.5 beat the dense encoding.
  large.topk_fraction = 0.4;
  EXPECT_LT(fl::compressed_wire_bytes(n, small),
            fl::compressed_wire_bytes(n, large));
  EXPECT_LT(fl::compressed_wire_bytes(n, large), fl::dense_wire_bytes(n));
  fl::CompressionConfig q8;
  q8.kind = fl::CompressionKind::Int8;
  EXPECT_LT(fl::compressed_wire_bytes(n, q8), fl::dense_wire_bytes(n));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressionProperty,
                         ::testing::Range<std::uint64_t>(500, 510));

// ---- Quantile sketch properties -----------------------------------------

class QuantileProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuantileProperty, SketchIsMonotoneAndDistanceIsMetricLike) {
  Rng rng(GetParam());
  const std::size_t classes = 2 + rng.uniform_index(6);
  stats::QuantileSummaryConfig cfg;
  cfg.num_quantiles = 3 + rng.uniform_index(12);

  auto random_dataset = [&](std::uint64_t seed) {
    Rng local(seed);
    data::Dataset ds({3}, classes);
    const std::size_t samples = 20 + local.uniform_index(60);
    for (std::size_t i = 0; i < samples; ++i) {
      std::vector<float> v(3);
      for (auto& x : v) x = static_cast<float>(local.normal(0.0, 1.5));
      add_sample(ds, v,
                 static_cast<std::int64_t>(local.uniform_index(classes)));
    }
    return ds;
  };
  const auto a = stats::summarize_quantiles(random_dataset(GetParam() * 3), cfg);
  const auto b = stats::summarize_quantiles(random_dataset(GetParam() * 5), cfg);
  const auto c = stats::summarize_quantiles(random_dataset(GetParam() * 7), cfg);

  for (const auto& qs : a.per_label) {
    for (std::size_t q = 1; q < qs.size(); ++q) {
      EXPECT_LE(qs[q - 1], qs[q]);
    }
  }
  const double dab = stats::quantile_distance(a, b, cfg);
  const double dba = stats::quantile_distance(b, a, cfg);
  const double daa = stats::quantile_distance(a, a, cfg);
  const double dac = stats::quantile_distance(a, c, cfg);
  const double dbc = stats::quantile_distance(b, c, cfg);
  EXPECT_DOUBLE_EQ(dab, dba);
  EXPECT_NEAR(daa, 0.0, 1e-12);
  EXPECT_GE(dab, 0.0);
  EXPECT_LE(dab, 1.0);
  // Weak triangle (the mass-weighted mean is not a strict metric, but the
  // relaxed inequality with slack holds across random instances).
  EXPECT_LE(dab, dac + dbc + 0.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileProperty,
                         ::testing::Range<std::uint64_t>(600, 612));

// ---- Gradient sketch preserves relative similarity -----------------------

class SketchProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SketchProperty, SimilarUpdatesStaySimilarUnderProjection) {
  Rng rng(GetParam());
  const std::size_t dim = 500;
  std::vector<float> base(dim), near(dim), far(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    base[i] = static_cast<float>(rng.normal());
    near[i] = base[i] + static_cast<float>(rng.normal(0.0, 0.05));
    far[i] = static_cast<float>(rng.normal());
  }
  const auto sketch = [](std::span<const float> update) {
    return core::sketch_update(update, 64);
  };

  auto cosine = [&](std::span<const float> a, std::span<const float> b) {
    double dot = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) dot += a[i] * b[i];
    return dot;  // sketches are unit-norm
  };
  const double sim_near = cosine(sketch(base), sketch(near));
  const double sim_far = cosine(sketch(base), sketch(far));
  EXPECT_GT(sim_near, 0.9);
  EXPECT_GT(sim_near, sim_far + 0.3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SketchProperty,
                         ::testing::Range<std::uint64_t>(700, 710));

// ---- Async engine invariants across configurations -----------------------

class AsyncProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(AsyncProperty, InvariantsHoldAcrossBufferAndConcurrency) {
  const auto [max_in_flight, buffer_size] = GetParam();
  data::SyntheticImageConfig gcfg;
  gcfg.classes = 4;
  gcfg.height = 6;
  gcfg.width = 6;
  data::SyntheticImageGenerator gen(gcfg);
  data::PartitionConfig pcfg;
  pcfg.num_clients = 8;
  pcfg.min_samples = 20;
  pcfg.max_samples = 30;
  pcfg.test_samples = 8;
  Rng rng(3);
  const auto fed = data::partition_majority_label(gen, pcfg, rng);

  fl::AsyncEngineConfig cfg;
  cfg.aggregations = 10;
  cfg.max_in_flight = max_in_flight;
  cfg.buffer_size = buffer_size;
  cfg.eval_every = 5;
  cfg.local.sgd.learning_rate = 0.05;
  fl::AsyncFederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                                    cfg);
  select::RandomSelector selector;
  const auto history = trainer.run(selector);

  ASSERT_EQ(history.records().size(), 10u);
  double prev = 0.0;
  for (const auto& r : history.records()) {
    EXPECT_GE(r.sim_time_s, prev);  // event time is monotone
    prev = r.sim_time_s;
    EXPECT_EQ(r.selected.size(), buffer_size);
    // A client's update is consumed at most once per aggregation.
    std::set<std::size_t> unique(r.selected.begin(), r.selected.end());
    EXPECT_EQ(unique.size(), r.selected.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, AsyncProperty,
    ::testing::Values(std::make_tuple(2u, 1u), std::make_tuple(4u, 2u),
                      std::make_tuple(4u, 4u), std::make_tuple(8u, 3u),
                      std::make_tuple(8u, 8u)));

// ---- Stratified coverage across cluster shapes ----------------------------

class StratifiedProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StratifiedProperty, CoverageIsUniformOverEpochs) {
  Rng rng(GetParam());
  const std::size_t n = 6 + rng.uniform_index(14);
  std::vector<int> labels(n);
  for (auto& l : labels) l = static_cast<int>(rng.uniform_index(4));
  core::StratifiedSelector selector(labels);

  std::vector<fl::ClientRuntimeInfo> view(n);
  for (std::size_t i = 0; i < n; ++i) {
    view[i].id = i;
    view[i].latency_s = rng.uniform(0.5, 5.0);
    view[i].num_samples = 10;
    view[i].last_loss = 1.0;
    view[i].available = true;
  }
  const std::size_t k = 1 + rng.uniform_index(n);
  std::vector<std::size_t> counts(n, 0);
  const std::size_t epochs = 6 * n;
  Rng sel_rng(GetParam() ^ 0xf00);
  for (std::size_t e = 0; e < epochs; ++e) {
    for (std::size_t id : selector.select(k, view, e, sel_rng)) ++counts[id];
  }
  // Everyone participates, and WITHIN each cluster the rotating cursor
  // keeps participation near-uniform. (Across clusters expected counts
  // differ: stratified coverage is per-cluster fair, so a singleton gets
  // one slot per pass while an m-member cluster splits its slots m ways.)
  for (std::size_t c : counts) EXPECT_GT(c, 0u);
  std::map<int, std::pair<std::size_t, std::size_t>> by_cluster;  // min,max
  for (std::size_t i = 0; i < n; ++i) {
    auto [it, inserted] = by_cluster.try_emplace(
        labels[i], std::make_pair(counts[i], counts[i]));
    if (!inserted) {
      it->second.first = std::min(it->second.first, counts[i]);
      it->second.second = std::max(it->second.second, counts[i]);
    }
  }
  for (const auto& [cluster, mm] : by_cluster) {
    EXPECT_LE(mm.second, mm.first + epochs / n + 2)
        << "cluster " << cluster;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StratifiedProperty,
                         ::testing::Range<std::uint64_t>(800, 810));

}  // namespace
}  // namespace haccs
