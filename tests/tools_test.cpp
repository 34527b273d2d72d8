// Tests for checkpointing (nn/serialize), the fairness metrics
// (fl/evaluation), and the stratified coverage selector.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "src/core/stratified_selector.hpp"
#include "src/data/synthetic.hpp"
#include "src/fl/client.hpp"
#include "src/fl/evaluation.hpp"
#include "src/nn/serialize.hpp"

namespace haccs {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Serialize, RoundTripsParameters) {
  Rng rng(3);
  nn::Sequential model = nn::make_mlp(8, {6}, 3, rng);
  const auto original = model.get_parameters();
  const auto path = temp_path("haccs_ckpt_roundtrip.bin");
  nn::save_parameters(model, path);

  // Perturb, then restore.
  auto perturbed = original;
  for (auto& v : perturbed) v += 1.0f;
  model.set_parameters(perturbed);
  nn::load_into(model, path);
  EXPECT_EQ(model.get_parameters(), original);
  std::filesystem::remove(path);
}

TEST(Serialize, LoadRejectsGarbage) {
  const auto path = temp_path("haccs_ckpt_garbage.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a checkpoint";
  }
  EXPECT_THROW(nn::load_parameters(path), std::runtime_error);
  std::filesystem::remove(path);
  EXPECT_THROW(nn::load_parameters(path), std::runtime_error);  // missing
}

TEST(Serialize, LoadRejectsTruncated) {
  Rng rng(5);
  nn::Sequential model = nn::make_mlp(8, {}, 3, rng);
  const auto path = temp_path("haccs_ckpt_truncated.bin");
  nn::save_parameters(model, path);
  // Chop the tail off.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 8);
  EXPECT_THROW(nn::load_parameters(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Serialize, SizeMismatchRejectedAtSet) {
  Rng rng(7);
  nn::Sequential small = nn::make_mlp(4, {}, 2, rng);
  nn::Sequential big = nn::make_mlp(8, {}, 4, rng);
  const auto path = temp_path("haccs_ckpt_mismatch.bin");
  nn::save_parameters(small, path);
  EXPECT_THROW(nn::load_into(big, path), std::invalid_argument);
  std::filesystem::remove(path);
}

TEST(Fairness, GiniBounds) {
  // Perfectly even participation.
  const std::vector<std::size_t> even = {5, 5, 5, 5};
  EXPECT_NEAR(fl::participation_gini(even), 0.0, 1e-9);
  // All work on one device: Gini -> (n-1)/n.
  const std::vector<std::size_t> skewed = {0, 0, 0, 20};
  EXPECT_NEAR(fl::participation_gini(skewed), 0.75, 1e-9);
  // Monotone: more concentration, higher Gini.
  const std::vector<std::size_t> mild = {4, 5, 5, 6};
  EXPECT_LT(fl::participation_gini(mild), fl::participation_gini(skewed));
  // Nobody selected at all.
  const std::vector<std::size_t> none = {0, 0};
  EXPECT_DOUBLE_EQ(fl::participation_gini(none), 0.0);
  EXPECT_THROW(fl::participation_gini({}), std::invalid_argument);
}

TEST(Fairness, AccuracySpread) {
  const std::vector<double> uniform = {0.9, 0.9, 0.9};
  EXPECT_DOUBLE_EQ(fl::accuracy_spread(uniform), 0.0);
  const std::vector<double> split = {1.0, 0.0};
  EXPECT_DOUBLE_EQ(fl::accuracy_spread(split), 0.5);
  EXPECT_THROW(fl::accuracy_spread({}), std::invalid_argument);
}

// ---- Stratified selector ----

std::vector<fl::ClientRuntimeInfo> make_view(std::size_t n) {
  std::vector<fl::ClientRuntimeInfo> view(n);
  for (std::size_t i = 0; i < n; ++i) {
    view[i].id = i;
    view[i].latency_s = 1.0 + static_cast<double>(i);
    view[i].num_samples = 10;
    view[i].last_loss = 1.0;
    view[i].available = true;
  }
  return view;
}

TEST(Stratified, OnePerClusterWhenKEqualsClusters) {
  // 3 clusters of 2.
  core::StratifiedSelector s({0, 0, 1, 1, 2, 2});
  auto view = make_view(6);
  Rng rng(13);
  const auto picks = s.select(3, view, 0, rng);
  ASSERT_EQ(picks.size(), 3u);
  std::set<int> clusters_hit;
  for (std::size_t id : picks) clusters_hit.insert(static_cast<int>(id / 2));
  EXPECT_EQ(clusters_hit.size(), 3u);  // every cluster covered
}

TEST(Stratified, EventuallyIncludesEveryDevice) {
  core::StratifiedSelector s({0, 0, 0, 1, 1, 1});
  auto view = make_view(6);
  Rng rng(17);
  std::set<std::size_t> seen;
  for (int epoch = 0; epoch < 12; ++epoch) {
    for (std::size_t id : s.select(2, view, epoch, rng)) seen.insert(id);
  }
  EXPECT_EQ(seen.size(), 6u);  // zero-bias coverage
}

TEST(Stratified, SkipsUnavailableDevices) {
  core::StratifiedSelector s({0, 0, 1, 1});
  auto view = make_view(4);
  view[0].available = false;
  view[1].available = false;  // cluster 0 fully down
  Rng rng(19);
  for (int epoch = 0; epoch < 5; ++epoch) {
    for (std::size_t id : s.select(2, view, epoch, rng)) {
      EXPECT_GE(id, 2u);
    }
  }
}

TEST(Stratified, NeverReturnsDuplicates) {
  core::StratifiedSelector s({0, 0, 0, 0, 1});
  auto view = make_view(5);
  Rng rng(23);
  for (int epoch = 0; epoch < 10; ++epoch) {
    const auto picks = s.select(4, view, epoch, rng);
    std::set<std::size_t> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), picks.size());
  }
}

TEST(Stratified, SecondPassFillsWhenKExceedsClusters) {
  core::StratifiedSelector s({0, 0, 0, 1, 1, 1});
  auto view = make_view(6);
  Rng rng(29);
  const auto picks = s.select(4, view, 0, rng);
  EXPECT_EQ(picks.size(), 4u);
}

TEST(Stratified, NoiseBecomesSingletons) {
  core::StratifiedSelector s({0, -1, 0, -1});
  EXPECT_EQ(s.num_clusters(), 3u);
}

}  // namespace
}  // namespace haccs
