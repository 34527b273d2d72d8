// Fig. 8b — Effect of the privacy loss epsilon on training time (CIFAR-like).
//
// Paper setup (§V-D2): HACCS P(y) trained with DP-noised summaries at
// eps in {0.1, 0.01, 0.001}, compared against the Random scheduler.
// Expectation: eps = 0.1 cuts TTA ~34% vs Random, eps = 0.01 ~23%,
// eps = 0.001 ~16% — weaker privacy budgets erode the clustering advantage
// but HACCS stays ahead of Random.
//
// Flags: --rounds=N --seed=N --full --csv=<path>
#include <cmath>
#include <cstdio>
#include <limits>

#include "bench/harness.hpp"
#include "src/common/table.hpp"

int main(int argc, char** argv) {
  using namespace haccs;
  const Flags flags(argc, argv);
  bench::ExperimentConfig exp;
  exp.dataset = bench::DatasetKind::CifarLike;
  exp.rounds = 180;
  exp.apply_flags(flags);
  const double target = flags.get_double("target", 0.5);
  const std::string csv = flags.get_string("csv", "");
  flags.check_unused();

  bench::print_header(
      "Fig. 8b — epsilon vs TTA (HACCS P(y), cifar-like)",
      std::to_string(exp.num_clients) + " clients, majority skew, eps in "
      "{none, 0.1, 0.01, 0.001} vs Random",
      "TTA reduction over Random shrinks as eps tightens (paper: 34% at "
      "eps=0.1, 23% at 0.01, 16% at 0.001)");

  auto gen = exp.make_generator();
  Rng rng(exp.seed);
  const auto fed =
      data::partition_majority_label(gen, exp.make_partition_config(), rng);
  const auto engine_config = exp.make_engine_config(fed);

  std::fprintf(stderr, "  running Random baseline...\n");
  core::HaccsConfig haccs;
  haccs.rho = 0.5;
  const auto random_history =
      bench::run_strategy("random", fed, engine_config, haccs).history;
  const double random_tta = random_history.time_to_accuracy(target);

  Table table({"epsilon", "tta@" + Table::num(100 * target, 0) + "% (s)",
               "reduction_vs_random", "final_acc"});
  table.add_row({"Random (baseline)", fl::format_tta(random_tta), "-",
                 Table::num(random_history.final_accuracy(), 3)});

  const std::vector<double> epsilons = {
      std::numeric_limits<double>::infinity(), 0.1, 0.01, 0.001};
  for (double eps : epsilons) {
    core::HaccsConfig cfg;
    cfg.rho = 0.5;
    cfg.privacy = stats::PrivacyConfig{eps};
    cfg.privacy_seed = exp.seed + 31;
    const std::string label =
        std::isfinite(eps) ? Table::num(eps, 3) : "none (no noise)";
    std::fprintf(stderr, "  running HACCS-P(y) eps=%s...\n", label.c_str());
    const auto history =
        bench::run_strategy("haccs-py", fed, engine_config, cfg).history;
    const double tta = history.time_to_accuracy(target);
    std::string reduction = "-";
    if (std::isfinite(random_tta) && std::isfinite(tta)) {
      reduction = Table::num(100.0 * (1.0 - tta / random_tta), 1) + "%";
    }
    table.add_row({label, fl::format_tta(tta), reduction,
                   Table::num(history.final_accuracy(), 3)});
  }
  table.print();
  if (!csv.empty()) table.write_csv(csv);
  return 0;
}
