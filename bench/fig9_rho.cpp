// Fig. 9 — Effect of the rho parameter (Eq. 7 latency/loss trade-off).
//
// Paper setup (§V-D3): CIFAR-10 with the main experiments' skewed labels,
// HACCS P(y) at rho in {0.01, 0.25, 0.5, 0.75, 0.99}. Expectation: larger
// rho (latency-favoring) converges to 50% faster — the noise labels give
// every cluster enough diversity that favoring fast clusters wins, and the
// law of large numbers still samples high-loss clusters occasionally.
//
// Flags: --rounds=N --seed=N --full --csv=<path>
#include <cstdio>

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
      "Fig. 9 — rho sweep (HACCS P(y), cifar-like)",
      std::to_string(exp.num_clients) +
          " clients, majority skew, rho in {0.01, 0.25, 0.5, 0.75, 0.99}",
      "larger rho converges to 50% faster (latency weighting beats loss "
      "weighting when clusters hold 25% diverse noise labels)");

  auto gen = exp.make_generator();
  Rng rng(exp.seed);
  const auto fed =
      data::partition_majority_label(gen, exp.make_partition_config(), rng);
  const auto engine_config = exp.make_engine_config(fed);

  Table table({"rho", "tta@" + Table::num(100 * target, 0) + "% (s)",
               "final_acc", "best_acc"});
  for (double rho : {0.01, 0.25, 0.5, 0.75, 0.99}) {
    core::HaccsConfig cfg;
    cfg.rho = rho;
    std::fprintf(stderr, "  running rho=%.2f...\n", rho);
    const auto history =
        bench::run_strategy("haccs-py", fed, engine_config, cfg).history;
    table.add_row({Table::num(rho, 2),
                   fl::format_tta(history.time_to_accuracy(target)),
                   Table::num(history.final_accuracy(), 3),
                   Table::num(history.best_accuracy(), 3)});
  }
  table.print();
  if (!csv.empty()) table.write_csv(csv);
  return 0;
}
