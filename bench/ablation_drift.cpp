// Ablation — distribution drift and dynamic re-clustering (paper §IV-C:
// "our framework can adapt in real time to shifts in data distribution").
//
// Mid-training, a fraction of clients' label distributions are re-drawn
// (apply_label_drift). Three schedulers compete on the same drifting
// substrate: HACCS with stale clusters (clustered once at the start), HACCS
// re-clustering every 10 epochs, and the gradient-direction scheduler
// (§IV-A's alternative summary, which must re-cluster constantly because
// gradients change every epoch).
//
// Flags: --rounds=N --seed=N --drift-epoch=N --drift-fraction=F --csv=<path>
#include <cstdio>

#include "bench/harness.hpp"
#include "src/common/table.hpp"

int main(int argc, char** argv) {
  using namespace haccs;
  const Flags flags(argc, argv);
  bench::ExperimentConfig exp;
  exp.dataset = bench::DatasetKind::FemnistLike;
  exp.rounds = 200;
  exp.apply_flags(flags);
  const auto drift_epoch =
      static_cast<std::size_t>(flags.get_int("drift-epoch", 80));
  const double drift_fraction = flags.get_double("drift-fraction", 0.5);
  const std::string csv = flags.get_string("csv", "");
  flags.check_unused();

  bench::print_header(
      "Ablation — drift adaptation (femnist-like)",
      Table::num(100 * drift_fraction, 0) + "% of clients redraw their label "
      "mixture at epoch " + std::to_string(drift_epoch),
      "re-clustering recovers faster after the drift than the stale static "
      "clustering; gradient clusters adapt but pay their per-epoch "
      "re-clustering overhead in selection quality");

  auto gen = exp.make_generator();

  struct Variant {
    std::string name;
    std::size_t recluster_every;  // 0 = static
    bool gradient = false;
  };
  const std::vector<Variant> variants = {
      {"HACCS-P(y) static clusters", 0, false},
      {"HACCS-P(y) recluster every 10", 10, false},
      // Every 5 epochs is GradientSelectorConfig's default cadence.
      {"gradient clusters (recluster every 5)", 0, true},
  };

  Table table({"variant", "acc_before_drift", "acc_after_drift(+20ep)",
               "final_acc", "tta@80% (s)"});
  for (const auto& variant : variants) {
    std::fprintf(stderr, "  running %s...\n", variant.name.c_str());
    // Fresh identical dataset per variant (drift mutates it in place).
    Rng rng(exp.seed);
    auto fed =
        data::partition_majority_label(gen, exp.make_partition_config(), rng);

    auto engine_config = exp.make_engine_config(fed);
    Rng drift_rng(exp.seed + 71);
    engine_config.on_epoch_begin = [&](std::size_t epoch) {
      if (epoch == drift_epoch) {
        data::apply_label_drift(fed, gen, drift_fraction, drift_rng);
      }
    };

    fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                                 engine_config);
    core::HaccsConfig haccs;
    haccs.rho = 0.5;
    haccs.recluster_every = variant.recluster_every;
    const auto selector =
        bench::make_selector(variant.gradient ? "gradient" : "haccs-py", fed,
                             engine_config, haccs);
    const auto history = trainer.run(*selector);

    // Accuracy just before the drift and 20 epochs after it.
    double before = 0.0, after = 0.0;
    for (const auto& r : history.records()) {
      if (r.epoch <= drift_epoch) before = r.global_accuracy;
      if (r.epoch <= drift_epoch + 20) after = r.global_accuracy;
    }
    table.add_row({variant.name, Table::num(before, 3), Table::num(after, 3),
                   Table::num(history.final_accuracy(), 3),
                   fl::format_tta(history.time_to_accuracy(0.8))});
  }
  table.print();
  if (!csv.empty()) table.write_csv(csv);
  return 0;
}
