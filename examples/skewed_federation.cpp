// Scenario: a geographically skewed federation.
//
// The paper's motivating example (§II-B): devices in different regions see
// different label distributions — "the distribution of alphanumeric
// characters used on a mobile phone will vary heavily by geographical
// region". We model five regions, each with its own label mixture and its
// own device-quality profile, and compare HACCS against Random and Oort on
// time-to-accuracy. HACCS's clusters recover the regions without ever
// seeing raw data.
//
// Run: ./build/examples/skewed_federation
#include <cstdio>
#include <map>

#include "src/core/haccs_selector.hpp"
#include "src/core/haccs_system.hpp"
#include "src/fl/engine.hpp"
#include "src/select/oort.hpp"
#include "src/select/random_selector.hpp"

int main() {
  using namespace haccs;

  data::SyntheticImageConfig image_config =
      data::SyntheticImageConfig::femnist_like(10);
  image_config.height = 16;
  image_config.width = 16;
  data::SyntheticImageGenerator generator(image_config);

  // Five "regions", six devices each. Every region types a different subset
  // of characters: region r draws labels from {2r, 2r+1} (80/20) plus a
  // sprinkle of everything else.
  const std::size_t regions = 5;
  const std::size_t per_region = 6;
  Rng rng(11);
  data::FederatedDataset federation;
  federation.num_classes = 10;
  for (std::size_t r = 0; r < regions; ++r) {
    std::vector<double> mixture(10, 0.02);  // 10% sprinkled uniformly
    mixture[2 * r] += 0.60;
    mixture[2 * r + 1] += 0.20;
    for (std::size_t d = 0; d < per_region; ++d) {
      data::ClientData client{
          data::Dataset(generator.sample_shape(), 10),
          data::Dataset(generator.sample_shape(), 10)};
      const std::size_t samples = 80 + rng.uniform_index(80);
      data::fill_from_mixture(generator, mixture, samples, client.train, rng);
      data::fill_from_mixture(generator, mixture, 25, client.test, rng);
      federation.clients.push_back(std::move(client));
      federation.true_group.push_back(static_cast<int>(r));
      federation.rotation.push_back(0.0);
      federation.true_label_distribution.push_back(mixture);
      federation.style.push_back(data::ClientStyle::neutral());
    }
  }

  fl::EngineConfig engine;
  engine.rounds = 100;
  engine.clients_per_round = 6;
  engine.eval_every = 5;
  engine.local.sgd.learning_rate = 0.08;
  engine.seed = 3;

  core::HaccsConfig haccs;
  haccs.rho = 0.5;

  fl::FederatedTrainer trainer(federation,
                               core::default_model_factory(federation, 99),
                               engine);

  // How well do the privacy-preserving clusters recover the regions?
  const auto clusters = core::cluster_clients(federation, haccs);
  std::map<int, std::map<int, int>> confusion;  // region -> cluster -> count
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    ++confusion[federation.true_group[i]][clusters[i]];
  }
  std::printf("region -> identified clusters (member counts):\n");
  for (const auto& [region, by_cluster] : confusion) {
    std::printf("  region %d:", region);
    for (const auto& [cluster, count] : by_cluster) {
      std::printf(" cluster %d x%d", cluster, count);
    }
    std::printf("\n");
  }

  // Train with HACCS and the two baselines on the identical substrate.
  core::HaccsSelector haccs_selector(federation, haccs);
  const auto haccs_history = trainer.run(haccs_selector);
  select::RandomSelector random_selector;
  const auto random_history = trainer.run(random_selector);
  select::OortSelector oort_selector({});
  const auto oort_history = trainer.run(oort_selector);

  std::printf("\ntime to 70%% accuracy (simulated seconds):\n");
  std::printf("  HACCS-P(y): %s\n",
              fl::format_tta(haccs_history.time_to_accuracy(0.7)).c_str());
  std::printf("  Oort:       %s\n",
              fl::format_tta(oort_history.time_to_accuracy(0.7)).c_str());
  std::printf("  Random:     %s\n",
              fl::format_tta(random_history.time_to_accuracy(0.7)).c_str());
  std::printf("\nfinal accuracy: HACCS %.3f, Oort %.3f, Random %.3f\n",
              haccs_history.final_accuracy(), oort_history.final_accuracy(),
              random_history.final_accuracy());
  return 0;
}
