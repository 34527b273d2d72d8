// Tests for src/fl/compression: top-k and int8 compressors, error feedback,
// wire sizing, and the end-to-end engine integration (compressed uplinks
// shorten slow clients' rounds without breaking learning).
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "src/core/haccs_system.hpp"
#include "src/fl/compression.hpp"
#include "src/fl/engine.hpp"
#include "src/select/random_selector.hpp"

namespace haccs::fl {
namespace {

TEST(Compression, WireBytes) {
  const std::size_t n = 1000;
  EXPECT_EQ(dense_wire_bytes(n), 4000u);

  CompressionConfig none;
  EXPECT_EQ(compressed_wire_bytes(n, none), 4000u);

  CompressionConfig topk;
  topk.kind = CompressionKind::TopK;
  topk.topk_fraction = 0.1;
  EXPECT_EQ(compressed_wire_bytes(n, topk), 100u * 8u);

  CompressionConfig q8;
  q8.kind = CompressionKind::Int8;
  EXPECT_EQ(compressed_wire_bytes(n, q8), 1000u + 8u);
}

TEST(Compression, NonePassesThrough) {
  const std::vector<float> update = {1.0f, -2.0f, 0.5f};
  std::vector<float> residual;
  CompressionConfig cfg;
  const auto out = compress_update(update, cfg, residual);
  EXPECT_EQ(out.dense, update);
}

TEST(Compression, TopKKeepsLargestMagnitudes) {
  const std::vector<float> update = {0.1f, -5.0f, 0.2f, 3.0f, -0.05f,
                                     0.3f, 0.01f, -1.0f, 0.0f, 0.4f};
  std::vector<float> residual;
  CompressionConfig cfg;
  cfg.kind = CompressionKind::TopK;
  cfg.topk_fraction = 0.3;  // keep 3 of 10
  cfg.error_feedback = false;
  const auto out = compress_update(update, cfg, residual);
  std::size_t nonzero = 0;
  for (float v : out.dense) {
    if (v != 0.0f) ++nonzero;
  }
  EXPECT_EQ(nonzero, 3u);
  EXPECT_FLOAT_EQ(out.dense[1], -5.0f);
  EXPECT_FLOAT_EQ(out.dense[3], 3.0f);
  EXPECT_FLOAT_EQ(out.dense[7], -1.0f);
}

TEST(Compression, TopKRejectsBadFraction) {
  std::vector<float> residual;
  const std::vector<float> update = {1.0f};
  CompressionConfig cfg;
  cfg.kind = CompressionKind::TopK;
  cfg.topk_fraction = 0.0;
  EXPECT_THROW(compress_update(update, cfg, residual), std::invalid_argument);
}

TEST(Compression, ErrorFeedbackRecoversDroppedMass) {
  // A coordinate too small to ever be in the top-k accumulates in the
  // residual until it wins a slot — the signature property of EF.
  const std::vector<float> update = {1.0f, 0.3f};
  std::vector<float> residual;
  CompressionConfig cfg;
  cfg.kind = CompressionKind::TopK;
  cfg.topk_fraction = 0.5;  // keep 1 of 2
  double transmitted_small = 0.0;
  for (int round = 0; round < 10; ++round) {
    const auto out = compress_update(update, cfg, residual);
    transmitted_small += out.dense[1];
  }
  // Over 10 rounds the small coordinate contributed ~10 * 0.3 total signal;
  // error feedback must have shipped a decent chunk of it.
  EXPECT_GT(transmitted_small, 1.0);
}

TEST(Compression, Int8BoundedQuantizationError) {
  Rng rng(3);
  std::vector<float> update(500);
  for (auto& v : update) v = static_cast<float>(rng.normal());
  std::vector<float> residual;
  CompressionConfig cfg;
  cfg.kind = CompressionKind::Int8;
  cfg.error_feedback = false;
  const auto out = compress_update(update, cfg, residual);
  float lo = 0.0f, hi = 0.0f;
  for (float v : update) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const float step = (hi - lo) / 255.0f;
  for (std::size_t i = 0; i < update.size(); ++i) {
    EXPECT_NEAR(out.dense[i], update[i], step * 0.51f) << i;
  }
}

TEST(Compression, Int8ConstantSignalExact) {
  const std::vector<float> update(10, 2.5f);
  std::vector<float> residual;
  CompressionConfig cfg;
  cfg.kind = CompressionKind::Int8;
  const auto out = compress_update(update, cfg, residual);
  for (float v : out.dense) EXPECT_FLOAT_EQ(v, 2.5f);
}

TEST(Compression, ResidualZeroWithoutErrorFeedback) {
  const std::vector<float> update = {1.0f, 2.0f};
  std::vector<float> residual;
  CompressionConfig cfg;
  cfg.kind = CompressionKind::TopK;
  cfg.topk_fraction = 0.5;
  cfg.error_feedback = false;
  compress_update(update, cfg, residual);
  EXPECT_TRUE(residual.empty());
}

// ---- engine integration ----

TEST(Compression, EngineTrainsWithCompressedUplink) {
  data::SyntheticImageConfig gcfg;
  gcfg.classes = 4;
  gcfg.height = 8;
  gcfg.width = 8;
  gcfg.noise_stddev = 0.3;
  data::SyntheticImageGenerator gen(gcfg);
  data::PartitionConfig pcfg;
  pcfg.num_clients = 8;
  pcfg.min_samples = 40;
  pcfg.max_samples = 60;
  pcfg.test_samples = 12;
  Rng rng(7);
  const auto fed = data::partition_majority_label(gen, pcfg, rng);

  fl::EngineConfig cfg;
  cfg.rounds = 40;
  cfg.clients_per_round = 3;
  cfg.eval_every = 10;
  cfg.local.sgd.learning_rate = 0.08;
  cfg.compression.kind = CompressionKind::TopK;
  cfg.compression.topk_fraction = 0.2;
  FederatedTrainer trainer(fed, core::default_model_factory(fed, 99), cfg);
  select::RandomSelector selector;
  const auto history = trainer.run(selector);
  EXPECT_GT(history.best_accuracy(), 0.5);  // still learns through top-k

  // Compressed uplink strictly reduces per-client latency vs dense.
  fl::EngineConfig dense_cfg = cfg;
  dense_cfg.compression.kind = CompressionKind::None;
  FederatedTrainer dense_trainer(fed, core::default_model_factory(fed, 99),
                                 dense_cfg);
  for (std::size_t i = 0; i < fed.num_clients(); ++i) {
    EXPECT_LT(trainer.client_latency(i), dense_trainer.client_latency(i));
  }
}

}  // namespace
}  // namespace haccs::fl
