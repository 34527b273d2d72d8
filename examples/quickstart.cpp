// Quickstart: train a federated model with HACCS scheduling in ~30 lines.
//
// Builds a small federation with skewed labels, lets HACCS cluster the
// clients from their privacy-preserving P(y) summaries, trains with
// cluster-aware selection, and prints the time-to-accuracy.
//
// Run: ./build/examples/quickstart
#include <cstdio>

#include "src/core/haccs_selector.hpp"
#include "src/core/haccs_system.hpp"
#include "src/fl/engine.hpp"

int main() {
  using namespace haccs;

  // 1. A synthetic federated dataset: 20 clients, 10 classes, each client
  //    dominated by one label (75%) plus three noise labels — the paper's
  //    main data layout.
  data::SyntheticImageConfig image_config =
      data::SyntheticImageConfig::femnist_like(10);
  image_config.height = 16;
  image_config.width = 16;
  data::SyntheticImageGenerator generator(image_config);

  data::PartitionConfig partition;
  partition.num_clients = 20;
  partition.min_samples = 80;
  partition.max_samples = 160;
  partition.test_samples = 25;
  Rng rng(42);
  const auto federation =
      data::partition_majority_label(generator, partition, rng);

  // 2. HACCS configuration: P(y) summaries, OPTICS clustering, rho = 0.5.
  core::HaccsConfig haccs;
  haccs.summary = stats::SummaryKind::Response;
  haccs.rho = 0.5;

  // 3. Engine configuration: 80 rounds, 5 clients per round, simulated
  //    heterogeneous devices (paper Table II).
  fl::EngineConfig engine;
  engine.rounds = 80;
  engine.clients_per_round = 5;
  engine.eval_every = 5;
  engine.local.sgd.learning_rate = 0.08;
  engine.seed = 7;

  // 4. Train: the selector clusters the clients, the trainer simulates the
  //    rounds.
  core::HaccsSelector selector(federation, haccs);
  fl::FederatedTrainer trainer(federation,
                               core::default_model_factory(federation, 99),
                               engine);
  const auto history = trainer.run(selector);

  // 5. Inspect.
  const auto clusters = core::cluster_clients(federation, haccs);
  std::printf("clients: %zu\n", federation.num_clients());
  std::printf("final accuracy: %.3f\n", history.final_accuracy());
  std::printf("time to 70%% accuracy: %s simulated seconds\n",
              fl::format_tta(history.time_to_accuracy(0.7)).c_str());
  std::printf("cluster of each client:");
  for (int c : clusters) std::printf(" %d", c);
  std::printf("\n");
  return 0;
}
