// Scenario: surviving flaky devices.
//
// The paper's robustness claim (§III, §V-C): HACCS keeps every data
// distribution represented as long as *some* device with a similar
// distribution is reachable — when the fastest device in a cluster drops,
// the next-fastest stands in. We build a federation where each distribution
// group has several devices, hit it with heavy per-epoch dropout, and
// compare HACCS with Oort (which tracks individual devices and suffers when
// a high-utility one vanishes).
//
// Run: ./build/examples/dropout_resilience
#include <cstdio>

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

  data::PartitionConfig partition;
  partition.num_clients = 30;
  partition.min_samples = 80;
  partition.max_samples = 160;
  partition.test_samples = 25;
  Rng rng(17);
  const auto federation =
      data::partition_majority_label(generator, partition, rng);

  fl::EngineConfig engine;
  engine.rounds = 120;
  engine.clients_per_round = 6;
  engine.eval_every = 5;
  engine.local.sgd.learning_rate = 0.08;
  engine.seed = 29;

  core::HaccsConfig haccs;
  haccs.rho = 0.5;
  fl::FederatedTrainer trainer(federation,
                               core::default_model_factory(federation, 99),
                               engine);

  std::printf("30 clients, 10 distribution groups, 6 selected per round\n");
  std::printf("dropout: 30%% of devices unavailable each epoch (recover "
              "next epoch), same draws for every strategy\n\n");

  const auto schedule =
      sim::make_per_epoch_dropout(federation.num_clients(), 0.30, 1234);

  core::HaccsSelector haccs_selector(federation, haccs);
  const auto haccs_history = trainer.run(haccs_selector, *schedule);
  select::OortSelector oort({});
  const auto oort_history = trainer.run(oort, *schedule);
  select::RandomSelector random;
  const auto random_history = trainer.run(random, *schedule);

  std::printf("time to 70%% accuracy under 30%% dropout:\n");
  std::printf("  HACCS-P(y): %s s\n",
              fl::format_tta(haccs_history.time_to_accuracy(0.7)).c_str());
  std::printf("  Oort:       %s s\n",
              fl::format_tta(oort_history.time_to_accuracy(0.7)).c_str());
  std::printf("  Random:     %s s\n",
              fl::format_tta(random_history.time_to_accuracy(0.7)).c_str());

  std::printf("\nfinal accuracy:\n");
  std::printf("  HACCS-P(y): %.3f\n", haccs_history.final_accuracy());
  std::printf("  Oort:       %.3f\n", oort_history.final_accuracy());
  std::printf("  Random:     %.3f\n", random_history.final_accuracy());

  // Show the substitution mechanism directly: selection counts spread over
  // cluster members rather than concentrating on one device per cluster.
  const auto counts =
      haccs_history.selection_counts(federation.num_clients());
  std::printf("\nper-cluster participation (selections per member):\n");
  for (std::size_t c = 0; c < haccs_selector.clusters().size(); ++c) {
    std::printf("  cluster %zu:", c);
    for (std::size_t id : haccs_selector.clusters()[c]) {
      std::printf(" client%zu=%zu", id, counts[id]);
    }
    std::printf("\n");
  }
  std::printf("\nreading: multiple members of each cluster participate — "
              "when the fastest is down, a same-distribution peer covers "
              "for it, which is why the accuracy curve stays smooth.\n");
  return 0;
}
