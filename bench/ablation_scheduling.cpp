// Ablation — scheduling design choices (DESIGN.md §5).
//
// One binary, three axes on the Fig. 5 FEMNIST-like workload:
//   * in-cluster pick: min-latency (Algorithm 1) vs latency-weighted random
//     (the §V-E bias mitigation) — TTA and device-inclusion breadth;
//   * clustering algorithm / extraction: OPTICS-auto (default) vs OPTICS-ξ
//     vs plain DBSCAN;
//   * local algorithm: FedAvg vs FedProx (mu > 0, latency-scaled work).
//
// Flags: --rounds=N --seed=N --csv=<path>
#include <cstdio>

#include "bench/harness.hpp"
#include "src/common/table.hpp"
#include "src/core/haccs_selector.hpp"
#include "src/core/stratified_selector.hpp"

int main(int argc, char** argv) {
  using namespace haccs;
  const Flags flags(argc, argv);
  bench::ExperimentConfig exp;
  exp.dataset = bench::DatasetKind::FemnistLike;
  exp.rounds = 180;
  exp.apply_flags(flags);
  const std::string csv = flags.get_string("csv", "");
  flags.check_unused();

  bench::print_header(
      "Ablation — scheduling design choices (HACCS P(y), femnist-like)",
      "in-cluster policy, clustering extraction, FedAvg vs FedProx",
      "min-latency converges fastest but includes fewer devices; weighted "
      "random trades a little TTA for broader inclusion; extraction variants "
      "agree on well-separated clusters; FedProx trades per-round time for "
      "straggler tolerance");

  auto gen = exp.make_generator();
  Rng rng(exp.seed);
  const auto fed =
      data::partition_majority_label(gen, exp.make_partition_config(), rng);
  const auto base_engine = exp.make_engine_config(fed);

  struct Variant {
    std::string name;
    core::HaccsConfig haccs;
    fl::EngineConfig engine;
  };
  std::vector<Variant> variants;

  {
    Variant v{"baseline (min-latency, optics-auto, FedAvg)", {}, base_engine};
    v.haccs.rho = 0.5;
    variants.push_back(v);
  }
  {
    Variant v{"in-cluster: weighted-random", {}, base_engine};
    v.haccs.rho = 0.5;
    v.haccs.in_cluster = core::InClusterPolicy::WeightedRandom;
    variants.push_back(v);
  }
  {
    Variant v{"extraction: xi(0.05)", {}, base_engine};
    v.haccs.rho = 0.5;
    v.haccs.extraction = core::Extraction::Xi;
    variants.push_back(v);
  }
  {
    Variant v{"algorithm: dbscan(eps=0.45)", {}, base_engine};
    v.haccs.rho = 0.5;
    v.haccs.algorithm = core::ClusterAlgorithm::Dbscan;
    v.haccs.dbscan.eps = 0.45;
    variants.push_back(v);
  }
  {
    Variant v{"local: FedProx(mu=0.01, scaled work)", {}, base_engine};
    v.haccs.rho = 0.5;
    v.engine.algorithm = fl::LocalAlgorithm::FedProx;
    v.engine.fedprox_mu = 0.01;
    variants.push_back(v);
  }

  Table table({"variant", "clusters", "tta@50% (s)", "tta@80% (s)",
               "final_acc", "devices_included"});

  // Stratified coverage policy (one pick per cluster, rotating members) —
  // run first since it does not fit the Variant mold (no Eq. 7 weights).
  {
    std::fprintf(stderr, "  running stratified coverage...\n");
    core::HaccsConfig cfg;
    cfg.initial_loss = base_engine.initial_loss;
    core::StratifiedSelector selector(core::cluster_clients(fed, cfg));
    fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                                 base_engine);
    const auto history = trainer.run(selector);
    const auto counts = history.selection_counts(fed.num_clients());
    std::size_t included = 0;
    for (std::size_t c : counts) {
      if (c > 0) ++included;
    }
    table.add_row({"policy: stratified coverage",
                   std::to_string(selector.num_clusters()),
                   fl::format_tta(history.time_to_accuracy(0.5)),
                   fl::format_tta(history.time_to_accuracy(0.8)),
                   Table::num(history.final_accuracy(), 3),
                   std::to_string(included) + "/" +
                       std::to_string(fed.num_clients())});
  }

  for (const auto& variant : variants) {
    std::fprintf(stderr, "  running %s...\n", variant.name.c_str());
    core::HaccsConfig cfg = variant.haccs;
    cfg.initial_loss = variant.engine.initial_loss;
    core::HaccsSelector selector(fed, cfg);
    fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                                 variant.engine);
    const auto history = trainer.run(selector);
    const auto counts = history.selection_counts(fed.num_clients());
    std::size_t included = 0;
    for (std::size_t c : counts) {
      if (c > 0) ++included;
    }
    table.add_row({variant.name, std::to_string(selector.num_clusters()),
                   fl::format_tta(history.time_to_accuracy(0.5)),
                   fl::format_tta(history.time_to_accuracy(0.8)),
                   Table::num(history.final_accuracy(), 3),
                   std::to_string(included) + "/" +
                       std::to_string(fed.num_clients())});
  }
  table.print();
  if (!csv.empty()) table.write_csv(csv);
  return 0;
}
