// Ablation — summary distance function (DESIGN.md §5; paper §V-E names
// alternative summaries/distances as future work).
//
// The paper chose Hellinger (Eq. 3) for boundedness and zero tolerance.
// This ablation swaps in total variation, Jensen-Shannon, symmetric KL, and
// cosine, measuring (a) clustering recovery on the Fig. 8a layout, clean and
// under DP noise, and (b) TTA when the full scheduler runs on each.
//
// Flags: --rounds=N --seed=N --skip-training --csv=<path>
#include <cstdio>

#include "bench/harness.hpp"
#include "src/common/table.hpp"
#include "src/stats/metrics.hpp"

int main(int argc, char** argv) {
  using namespace haccs;
  const Flags flags(argc, argv);
  bench::ExperimentConfig exp;
  exp.dataset = bench::DatasetKind::CifarLike;
  exp.rounds = 150;
  exp.apply_flags(flags);
  const bool skip_training = flags.get_bool("skip-training", false);
  const std::string csv = flags.get_string("csv", "");
  flags.check_unused();

  bench::print_header(
      "Ablation — summary distance function (P(y))",
      "clustering recovery on 20 clients / 10 groups (clean + eps=0.1), and "
      "TTA@50% on the Fig. 5 workload",
      "Hellinger (the paper's choice) should be matched by TV/JS on clean "
      "data; differences emerge under DP noise where boundedness and zero "
      "handling matter");

  const std::vector<stats::DistanceKind> kinds = {
      stats::DistanceKind::Hellinger, stats::DistanceKind::TotalVariation,
      stats::DistanceKind::JensenShannon, stats::DistanceKind::SymmetricKl,
      stats::DistanceKind::Cosine};

  auto gen = exp.make_generator();
  Rng pair_rng(exp.seed);
  const auto pairs = data::partition_two_per_label(gen, 500, 10, pair_rng);

  Table table({"distance", "recovery_clean", "recovery_eps0.1",
               "tta@50% (s)"});
  std::optional<data::FederatedDataset> train_fed;
  std::optional<fl::EngineConfig> engine_config;
  if (!skip_training) {
    Rng rng(exp.seed);
    train_fed = data::partition_majority_label(
        gen, exp.make_partition_config(), rng);
    engine_config = exp.make_engine_config(*train_fed);
  }

  for (auto kind : kinds) {
    core::HaccsConfig cfg;
    cfg.response_distance = kind;
    const auto clean = core::cluster_clients(pairs, cfg);
    const double clean_score =
        stats::exact_cluster_recovery(clean, pairs.true_group);

    double noisy_score = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      core::HaccsConfig noisy_cfg = cfg;
      noisy_cfg.privacy = stats::PrivacyConfig{0.1};
      noisy_cfg.privacy_seed = exp.seed * 100 + rep;
      const auto noisy = core::cluster_clients(pairs, noisy_cfg);
      noisy_score += stats::exact_cluster_recovery(noisy, pairs.true_group);
    }
    noisy_score /= 5.0;

    std::string tta = "-";
    if (!skip_training) {
      std::fprintf(stderr, "  training with %s...\n",
                   stats::to_string(kind).c_str());
      core::HaccsConfig sched = cfg;
      sched.rho = 0.5;
      const auto history = bench::run_strategy("haccs-py", *train_fed,
                                               *engine_config, sched)
              .history;
      tta = fl::format_tta(history.time_to_accuracy(0.5));
    }
    table.add_row({stats::to_string(kind), Table::num(clean_score, 2),
                   Table::num(noisy_score, 2), tta});
  }
  table.print();
  if (!csv.empty()) table.write_csv(csv);
  return 0;
}
