// A tour of the features beyond the paper's core algorithm: quantile
// summaries, the Gaussian privacy mechanism, FedProx local training with
// latency-scaled partial work, checkpointing, and the fairness audit.
//
// Run: ./build/examples/extensions_tour
#include <cstdio>
#include <map>

#include "src/core/haccs_selector.hpp"
#include "src/core/haccs_system.hpp"
#include "src/fl/engine.hpp"
#include "src/fl/evaluation.hpp"
#include "src/nn/serialize.hpp"

int main() {
  using namespace haccs;

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
  partition.style_brightness_stddev = 0.2;  // per-device feature variation
  partition.style_contrast_stddev = 0.08;
  Rng rng(61);
  const auto federation =
      data::partition_majority_label(generator, partition, rng);

  // 1. Quantile summaries (Q(X|y)) under the *Gaussian* mechanism: a more
  //    compact feature summary, a different DP guarantee ((eps, delta)).
  core::HaccsConfig haccs;
  haccs.summary = stats::SummaryKind::Quantile;
  haccs.privacy.epsilon = 0.5;
  haccs.privacy.delta = 1e-5;
  haccs.privacy.mechanism = stats::NoiseMechanism::Gaussian;
  haccs.rho = 0.5;

  // 2. FedProx local training: stragglers do partial work against a
  //    proximal objective instead of gating the round entirely.
  fl::EngineConfig engine;
  engine.rounds = 100;
  engine.clients_per_round = 5;
  engine.eval_every = 5;
  engine.local.sgd.learning_rate = 0.08;
  engine.algorithm = fl::LocalAlgorithm::FedProx;
  engine.fedprox_mu = 0.01;
  engine.seed = 19;

  fl::FederatedTrainer trainer(federation,
                               core::default_model_factory(federation, 99),
                               engine);
  const auto clusters = core::cluster_clients(federation, haccs);
  std::size_t singleton_count = 0;
  {
    std::vector<int> copy = clusters;
    std::map<int, int> sizes;
    for (int c : copy) {
      if (c >= 0) ++sizes[c];
    }
    for (const auto& [c, n] : sizes) {
      if (n == 1) ++singleton_count;
    }
  }
  std::printf("Q(X|y) + Gaussian(eps=0.5, delta=1e-5): %zu singleton "
              "clusters among %zu clients\n",
              singleton_count, federation.num_clients());

  core::HaccsSelector selector(federation, haccs);
  const auto history = trainer.run(selector);
  std::printf("FedProx training: final accuracy %.3f, TTA@70%% = %s s\n",
              history.final_accuracy(),
              fl::format_tta(history.time_to_accuracy(0.7)).c_str());

  // 3. Fairness audit: who actually participated, and how evenly does the
  //    model serve the fleet?
  const auto counts = history.selection_counts(federation.num_clients());
  const auto& per_client = trainer.final_per_client_accuracy();
  std::printf("participation Gini: %.3f (0 = even)\n",
              fl::participation_gini(counts));
  std::printf("per-client accuracy spread (stddev): %.3f\n",
              fl::accuracy_spread(per_client));

  // 4. Checkpoint the trained model and prove the round trip.
  auto model = core::default_model_factory(federation, 99)();
  model.set_parameters(trainer.final_parameters());
  const std::string path = "/tmp/haccs_extensions_tour.ckpt";
  nn::save_parameters(model, path);

  auto reloaded = core::default_model_factory(federation, 99)();
  nn::load_into(reloaded, path);
  const auto check = fl::evaluate(reloaded, federation.clients[0].test);
  std::printf("checkpoint reloaded: accuracy on client 0 = %.3f\n",
              check.accuracy);
  std::printf("checkpoint written to %s\n", path.c_str());
  return 0;
}
