// Tests for src/data: dataset container, the synthetic generator (class
// separability, determinism, rotation), and all partitioners (mixture
// proportions, Table I encoding, ground-truth groups).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>

#include "src/data/dataset.hpp"
#include "src/data/partition.hpp"
#include "src/data/synthetic.hpp"
#include "tests/helpers.hpp"

namespace haccs::data {
namespace {

TEST(Dataset, AddAndRetrieve) {
  Dataset ds({2, 2}, 3);
  const std::vector<float> sample = {1, 2, 3, 4};
  add_sample(ds, sample, 2);
  EXPECT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds.label(0), 2);
  EXPECT_EQ(ds.features(0)[3], 4.0f);
}

TEST(Dataset, RejectsBadInput) {
  Dataset ds({2}, 2);
  const std::vector<std::int64_t> too_big = {0, 2}, negative = {-1};
  EXPECT_THROW(ds.add_rows(too_big), std::invalid_argument);  // label range
  EXPECT_THROW(ds.add_rows(negative), std::invalid_argument);
  EXPECT_EQ(ds.size(), 0u);  // a rejected call adds nothing
  EXPECT_THROW(Dataset({0}, 2), std::invalid_argument);
  EXPECT_THROW(Dataset({2}, 0), std::invalid_argument);
}

TEST(Dataset, BatchAssembly) {
  Dataset ds({2}, 2);
  add_sample(ds, std::vector<float>{1, 2}, 0);
  add_sample(ds, std::vector<float>{3, 4}, 1);
  add_sample(ds, std::vector<float>{5, 6}, 0);
  const std::vector<std::size_t> idx = {2, 0};
  const Tensor batch = ds.batch_features(idx);
  EXPECT_EQ(batch.shape(), (std::vector<std::size_t>{2, 2}));
  EXPECT_FLOAT_EQ(batch[0], 5.0f);  // row 0, column 0
  EXPECT_FLOAT_EQ(batch[3], 2.0f);  // row 1, column 1
  EXPECT_EQ(ds.batch_labels(idx), (std::vector<std::int64_t>{0, 0}));
}

TEST(Dataset, LabelCounts) {
  Dataset ds({1}, 3);
  const std::vector<float> v = {0.0f};
  add_sample(ds, v, 0);
  add_sample(ds, v, 2);
  add_sample(ds, v, 2);
  const auto counts = ds.label_counts();
  EXPECT_DOUBLE_EQ(counts[0], 1.0);
  EXPECT_DOUBLE_EQ(counts[1], 0.0);
  EXPECT_DOUBLE_EQ(counts[2], 2.0);
}

TEST(SyntheticGenerator, DeterministicPrototypes) {
  SyntheticImageGenerator g1(SyntheticImageConfig::mnist_like());
  SyntheticImageGenerator g2(SyntheticImageConfig::mnist_like());
  for (std::int64_t c = 0; c < 10; ++c) {
    const auto p1 = g1.prototype(c);
    const auto p2 = g2.prototype(c);
    for (std::size_t i = 0; i < p1.size(); ++i) EXPECT_EQ(p1[i], p2[i]);
  }
}

TEST(SyntheticGenerator, PrototypesDifferAcrossClasses) {
  SyntheticImageGenerator gen(SyntheticImageConfig::mnist_like());
  const auto a = gen.prototype(0);
  const auto b = gen.prototype(1);
  double diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff += std::abs(a[i] - b[i]);
  }
  EXPECT_GT(diff / static_cast<double>(a.size()), 0.1);
}

TEST(SyntheticGenerator, SampleIsNoisyPrototype) {
  SyntheticImageConfig cfg;
  cfg.max_shift = 0;  // isolate the noise term
  SyntheticImageGenerator gen(cfg);
  Rng rng(5);
  std::vector<float> sample(gen.sample_size());
  gen.generate(3, rng, sample);
  const auto proto = gen.prototype(3);
  double mse = 0.0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const double d = sample[i] - proto[i];
    mse += d * d;
  }
  mse /= static_cast<double>(sample.size());
  EXPECT_NEAR(mse, cfg.noise_stddev * cfg.noise_stddev, 0.05);
}

TEST(SyntheticGenerator, CifarLikeShape) {
  SyntheticImageGenerator gen(SyntheticImageConfig::cifar_like());
  EXPECT_EQ(gen.sample_shape(), (std::vector<std::size_t>{3, 32, 32}));
  EXPECT_EQ(gen.sample_size(), 3u * 32 * 32);
}

TEST(SyntheticGenerator, FemnistClassBounds) {
  EXPECT_NO_THROW(SyntheticImageConfig::femnist_like(62));
  EXPECT_THROW(SyntheticImageConfig::femnist_like(63), std::invalid_argument);
  EXPECT_THROW(SyntheticImageConfig::femnist_like(0), std::invalid_argument);
}

TEST(SyntheticGenerator, FillAddsCountSamples) {
  SyntheticImageGenerator gen(SyntheticImageConfig::mnist_like());
  Dataset ds(gen.sample_shape(), 10);
  Rng rng(7);
  gen.fill(ds, 4, 25, rng);
  EXPECT_EQ(ds.size(), 25u);
  for (std::size_t i = 0; i < ds.size(); ++i) EXPECT_EQ(ds.label(i), 4);
}

TEST(RotateImage, ZeroDegreesIsIdentity) {
  const std::size_t h = 8, w = 8;
  std::vector<float> img(h * w), out(h * w);
  Rng rng(9);
  for (auto& v : img) v = static_cast<float>(rng.normal());
  rotate_image(img, out, 1, h, w, 0.0);
  for (std::size_t i = 0; i < img.size(); ++i) EXPECT_NEAR(out[i], img[i], 1e-5);
}

TEST(RotateImage, FourQuarterTurnsRoundTrip) {
  const std::size_t h = 9, w = 9;  // odd size: exact center pixel
  std::vector<float> img(h * w, 0.0f);
  img[1 * w + 4] = 1.0f;  // a single bright pixel above center
  std::vector<float> current = img, next(h * w);
  for (int i = 0; i < 4; ++i) {
    rotate_image(current, next, 1, h, w, 90.0);
    current = next;
  }
  for (std::size_t i = 0; i < img.size(); ++i) {
    EXPECT_NEAR(current[i], img[i], 1e-4);
  }
}

TEST(RotateImage, FortyFiveDegreesChangesImage) {
  SyntheticImageGenerator gen(SyntheticImageConfig::mnist_like());
  const auto proto = gen.prototype(0);
  std::vector<float> rotated(proto.size());
  rotate_image(proto, rotated, 1, 28, 28, 45.0);
  double diff = 0.0;
  for (std::size_t i = 0; i < proto.size(); ++i) {
    diff += std::abs(rotated[i] - proto[i]);
  }
  EXPECT_GT(diff / static_cast<double>(proto.size()), 0.05);
}

// ---- Partitioners ----

SyntheticImageGenerator small_gen() {
  SyntheticImageConfig cfg;
  cfg.height = 8;
  cfg.width = 8;
  return SyntheticImageGenerator(cfg);
}

TEST(Partition, MajorityLabelProportions) {
  auto gen = small_gen();
  PartitionConfig cfg;
  cfg.num_clients = 20;
  cfg.min_samples = 400;
  cfg.max_samples = 400;
  cfg.test_samples = 10;
  Rng rng(11);
  const auto fed = partition_majority_label(gen, cfg, rng);
  ASSERT_EQ(fed.num_clients(), 20u);
  for (std::size_t i = 0; i < fed.num_clients(); ++i) {
    const auto& mix = fed.true_label_distribution[i];
    // Round-robin majority label with 75% share.
    EXPECT_DOUBLE_EQ(mix[i % 10], 0.75);
    // Exactly four labels with nonzero probability, summing to 1.
    int nonzero = 0;
    double total = 0.0;
    for (double p : mix) {
      if (p > 0.0) ++nonzero;
      total += p;
    }
    EXPECT_EQ(nonzero, 4);
    EXPECT_NEAR(total, 1.0, 1e-9);
    // Empirical majority share close to 75%.
    const auto counts = fed.clients[i].train.label_counts();
    EXPECT_NEAR(counts[i % 10] / 400.0, 0.75, 0.08);
  }
}

TEST(Partition, MajorityLabelVariesDataAmount) {
  auto gen = small_gen();
  PartitionConfig cfg;
  cfg.num_clients = 30;
  cfg.min_samples = 50;
  cfg.max_samples = 150;
  cfg.test_samples = 5;
  Rng rng(13);
  const auto fed = partition_majority_label(gen, cfg, rng);
  std::set<std::size_t> sizes;
  for (const auto& c : fed.clients) {
    EXPECT_GE(c.train.size(), 50u);
    EXPECT_LE(c.train.size(), 150u);
    sizes.insert(c.train.size());
    EXPECT_EQ(c.test.size(), 5u);
  }
  EXPECT_GT(sizes.size(), 3u);  // "the amount of data varies"
}

TEST(Partition, GroupTableMatchesPaper) {
  const auto table = group_partition_table();
  EXPECT_EQ(table[0][0], 6);
  EXPECT_EQ(table[0][1], 7);
  EXPECT_EQ(table[4][0], 0);
  EXPECT_EQ(table[4][1], 4);
  EXPECT_EQ(table[9][0], 1);
  EXPECT_EQ(table[9][1], 3);
}

TEST(Partition, GroupTablePartitionStructure) {
  auto gen = small_gen();
  PartitionConfig cfg;
  cfg.num_clients = 100;
  cfg.min_samples = 60;
  cfg.max_samples = 60;
  cfg.test_samples = 10;
  Rng rng(17);
  const auto fed = partition_group_table(gen, cfg, rng);
  ASSERT_EQ(fed.num_clients(), 100u);
  const auto table = group_partition_table();
  for (std::size_t i = 0; i < 100; ++i) {
    const std::size_t group = i / 10;
    EXPECT_EQ(fed.true_group[i], static_cast<int>(group));
    // Clients only hold the two classes of their group.
    const auto counts = fed.clients[i].train.label_counts();
    for (std::size_t c = 0; c < 10; ++c) {
      const bool in_group = static_cast<int>(c) == table[group][0] ||
                            static_cast<int>(c) == table[group][1];
      if (!in_group) {
        EXPECT_DOUBLE_EQ(counts[c], 0.0) << "client " << i;
      }
    }
  }
}

TEST(Partition, GroupTableRejectsBadClientCount) {
  auto gen = small_gen();
  PartitionConfig cfg;
  cfg.num_clients = 55;
  Rng rng(1);
  EXPECT_THROW(partition_group_table(gen, cfg, rng), std::invalid_argument);
}

TEST(Partition, IidAllLabelsEverywhere) {
  auto gen = small_gen();
  PartitionConfig cfg;
  cfg.num_clients = 8;
  cfg.min_samples = 500;
  cfg.max_samples = 500;
  cfg.test_samples = 10;
  Rng rng(19);
  const auto fed = partition_iid(gen, cfg, rng);
  // All clients share one ground-truth group and equal sizes.
  for (std::size_t i = 0; i < fed.num_clients(); ++i) {
    EXPECT_EQ(fed.true_group[i], 0);
    EXPECT_EQ(fed.clients[i].train.size(), 500u);
    const auto counts = fed.clients[i].train.label_counts();
    for (double c : counts) EXPECT_GT(c, 0.0);
  }
}

TEST(Partition, KRandomLabelsHasExactlyK) {
  auto gen = small_gen();
  PartitionConfig cfg;
  cfg.num_clients = 12;
  cfg.test_samples = 5;
  Rng rng(23);
  const auto fed = partition_k_random_labels(gen, cfg, 5, rng);
  for (const auto& mix : fed.true_label_distribution) {
    int nonzero = 0;
    for (double p : mix) {
      if (p > 0.0) {
        ++nonzero;
        EXPECT_NEAR(p, 0.2, 1e-9);
      }
    }
    EXPECT_EQ(nonzero, 5);
  }
  EXPECT_THROW(partition_k_random_labels(gen, cfg, 0, rng),
               std::invalid_argument);
  EXPECT_THROW(partition_k_random_labels(gen, cfg, 11, rng),
               std::invalid_argument);
}

TEST(Partition, FeatureSkewTiesRotationToMajority) {
  auto gen = small_gen();
  PartitionConfig cfg;
  cfg.num_clients = 20;
  cfg.test_samples = 5;
  Rng rng(29);
  const auto fed = partition_feature_skew(gen, cfg, 45.0, rng);
  for (std::size_t i = 0; i < fed.num_clients(); ++i) {
    const std::size_t majority = i % 10;
    EXPECT_DOUBLE_EQ(fed.rotation[i], majority % 2 == 0 ? 0.0 : 45.0);
  }
  // Rotated and unrotated clients never share a ground-truth group.
  for (std::size_t i = 0; i < fed.num_clients(); ++i) {
    for (std::size_t j = i + 1; j < fed.num_clients(); ++j) {
      if (fed.rotation[i] != fed.rotation[j]) {
        EXPECT_NE(fed.true_group[i], fed.true_group[j]);
      }
    }
  }
}

TEST(Partition, TwoPerLabelStructure) {
  auto gen = small_gen();
  Rng rng(31);
  const auto fed = partition_two_per_label(gen, 200, 10, rng);
  ASSERT_EQ(fed.num_clients(), 20u);
  // Exactly two clients per ground-truth group, identical mixtures.
  std::map<int, int> group_sizes;
  for (int g : fed.true_group) ++group_sizes[g];
  EXPECT_EQ(group_sizes.size(), 10u);
  for (const auto& [g, count] : group_sizes) EXPECT_EQ(count, 2);
  // 70% majority share.
  EXPECT_DOUBLE_EQ(fed.true_label_distribution[0][0], 0.7);
}

TEST(Partition, DirichletProducesValidMixtures) {
  auto gen = small_gen();
  PartitionConfig cfg;
  cfg.num_clients = 15;
  cfg.test_samples = 5;
  Rng rng(37);
  const auto fed = partition_dirichlet(gen, cfg, 0.5, rng);
  for (const auto& mix : fed.true_label_distribution) {
    double total = 0.0;
    for (double p : mix) {
      EXPECT_GE(p, 0.0);
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
  EXPECT_THROW(partition_dirichlet(gen, cfg, 0.0, rng), std::invalid_argument);
}

TEST(Partition, DirichletSkewIncreasesWithSmallAlpha) {
  auto gen = small_gen();
  PartitionConfig cfg;
  cfg.num_clients = 40;
  cfg.test_samples = 5;
  Rng rng1(41), rng2(41);
  const auto skewed = partition_dirichlet(gen, cfg, 0.05, rng1);
  const auto smooth = partition_dirichlet(gen, cfg, 50.0, rng2);
  auto avg_max_share = [](const FederatedDataset& fed) {
    double acc = 0.0;
    for (const auto& mix : fed.true_label_distribution) {
      acc += *std::max_element(mix.begin(), mix.end());
    }
    return acc / static_cast<double>(fed.num_clients());
  };
  EXPECT_GT(avg_max_share(skewed), avg_max_share(smooth) + 0.2);
}

TEST(Partition, DeterministicGivenSeed) {
  auto gen = small_gen();
  PartitionConfig cfg;
  cfg.num_clients = 10;
  cfg.test_samples = 4;
  Rng rng1(43), rng2(43);
  const auto a = partition_majority_label(gen, cfg, rng1);
  const auto b = partition_majority_label(gen, cfg, rng2);
  ASSERT_EQ(a.num_clients(), b.num_clients());
  for (std::size_t i = 0; i < a.num_clients(); ++i) {
    ASSERT_EQ(a.clients[i].train.size(), b.clients[i].train.size());
    for (std::size_t s = 0; s < a.clients[i].train.size(); ++s) {
      EXPECT_EQ(a.clients[i].train.label(s), b.clients[i].train.label(s));
      EXPECT_EQ(a.clients[i].train.features(s)[0],
                b.clients[i].train.features(s)[0]);
    }
  }
}

// ---- Bit-identity pins ----
//
// FNV-1a digests over every feature and label a generator or partitioner
// produces, plus the state its Rng is left in. They pin the exact sample
// stream: any change to the draw order or the pixel arithmetic moves them.
// Update a pin only for a deliberate change to the generated data.

class Fnv1a {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) hash_ = (hash_ ^ b) * 0x100000001b3ULL;
  }
  void add(const Dataset& ds) {
    add(ds.size());
    for (std::size_t i = 0; i < ds.size(); ++i) {
      add(ds.label(i));
      for (float v : ds.features(i)) add(v);
    }
  }
  void add(const Rng& rng) {
    const auto st = rng.state();
    for (std::uint64_t w : st.s) add(w);
    add(st.cached_normal);
    add(st.has_cached_normal);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest(const FederatedDataset& fed, const Rng& rng) {
  Fnv1a h;
  for (const auto& client : fed.clients) {
    h.add(client.train);
    h.add(client.test);
  }
  h.add(rng);
  return h.value();
}

SyntheticImageGenerator pin_gen(std::size_t height, std::size_t width) {
  SyntheticImageConfig cfg;
  cfg.height = height;
  cfg.width = width;
  return SyntheticImageGenerator(cfg);
}

PartitionConfig pin_config(bool style) {
  PartitionConfig cfg;
  cfg.num_clients = 20;
  cfg.min_samples = 6;
  cfg.max_samples = 18;
  cfg.test_samples = 5;
  if (style) {
    cfg.style_brightness_stddev = 0.2;
    cfg.style_contrast_stddev = 0.15;
  }
  return cfg;
}

#define EXPECT_DIGEST(actual, expected) \
  EXPECT_EQ(actual, expected##ULL) << "digest 0x" << std::hex << (actual)

TEST(SyntheticGenerator, FillDigestIsPinned) {
  // 7x9 has an odd pixel count, so every second sample starts on the cached
  // half of a Box-Muller pair.
  struct Pin {
    std::size_t height, width;
    std::uint64_t digest;
  };
  for (const Pin& pin : {Pin{7, 9, 0x17fdeac4f3f865e4ULL},
                         Pin{16, 16, 0x7df4c07bb77227ebULL}}) {
    const auto gen = pin_gen(pin.height, pin.width);
    Rng rng(11);
    Dataset ds(gen.sample_shape(), 10);
    gen.fill(ds, 3, 7, rng);
    gen.fill(ds, 5, 6, rng, 45.0);
    gen.fill(ds, 8, 5, rng, 0.0, ClientStyle{0.3, 1.2});
    gen.fill(ds, 1, 3, rng, 30.0, ClientStyle{-0.1, 0.8});
    Fnv1a d;
    d.add(ds);
    d.add(rng);
    EXPECT_EQ(d.value(), pin.digest)
        << pin.height << "x" << pin.width << ": digest 0x" << std::hex
        << d.value();
  }
}

TEST(Partition, DigestsArePinned) {
  const auto odd = pin_gen(7, 9);
  const auto even = pin_gen(16, 16);
  {
    Rng rng(1);
    const auto fed = partition_majority_label(odd, pin_config(true), rng);
    EXPECT_DIGEST(digest(fed, rng), 0x61607a9891cbe622);
  }
  {
    Rng rng(2);
    const auto fed = partition_majority_label(even, pin_config(false), rng);
    EXPECT_DIGEST(digest(fed, rng), 0x29e9ce76b31914c4);
  }
  {
    Rng rng(3);
    const auto fed = partition_iid(odd, pin_config(false), rng);
    EXPECT_DIGEST(digest(fed, rng), 0xcd4c520977a636df);
  }
  {
    Rng rng(4);
    const auto fed = partition_k_random_labels(even, pin_config(true), 5, rng);
    EXPECT_DIGEST(digest(fed, rng), 0x646e3af2de178fdb);
  }
  {
    Rng rng(5);
    const auto fed = partition_feature_skew(odd, pin_config(true), 45.0, rng);
    EXPECT_DIGEST(digest(fed, rng), 0xa37223c363e62598);
  }
  {
    Rng rng(6);
    const auto fed = partition_group_table(even, pin_config(false), rng);
    EXPECT_DIGEST(digest(fed, rng), 0x5a8301fccc66cc52);
  }
  {
    Rng rng(7);
    const auto fed = partition_two_per_label(odd, 9, 4, rng);
    EXPECT_DIGEST(digest(fed, rng), 0x72aa4c08830ecc7f);
  }
  {
    Rng rng(8);
    const auto fed = partition_dirichlet(even, pin_config(true), 0.5, rng);
    EXPECT_DIGEST(digest(fed, rng), 0xf09837f8ea035d2d);
  }
}

TEST(Partition, LabelDriftDigestIsPinned) {
  const auto gen = pin_gen(7, 9);
  Rng rng(9);
  auto fed = partition_feature_skew(gen, pin_config(true), 45.0, rng);
  Rng drift_rng(10);
  apply_label_drift(fed, gen, 0.5, drift_rng);
  EXPECT_DIGEST(digest(fed, drift_rng), 0x9d4dec04750d3225);
}

}  // namespace
}  // namespace haccs::data
