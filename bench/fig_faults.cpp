// Fault-tolerance sweep — TTA under mid-round crashes, with and without
// deadline-based over-selection (robustness extension, no paper analogue).
//
// The paper's §V-C dropout experiments only remove clients *before*
// selection; this sweep injects seeded mid-round crashes (FaultModel) at
// rates {0, 5, 15, 30}% and compares Random/TiFL/Oort/HACCS twice per rate:
// plain synchronous rounds, and hardened rounds (over-selection + deadline +
// circuit breaker). Expectation: without hardening every strategy's TTA
// degrades roughly in proportion to the crash rate (each crash wastes the
// whole round's straggler wait); with it, HACCS degrades least because
// report_failure re-samples a same-cluster stand-in, preserving the cluster
// coverage that drives its convergence.
//
// Flags: --rounds=N --seed=N --full --overcommit=F --deadline=Q
//        --corruption=F --straggler=F --flaky=F --flaky-boost=F
//        --csv=<prefix>
#include <cstdio>
#include <vector>

#include "bench/harness.hpp"
#include "src/common/table.hpp"

int main(int argc, char** argv) {
  using namespace haccs;
  const Flags flags(argc, argv);
  bench::ExperimentConfig exp;
  exp.dataset = bench::DatasetKind::FemnistLike;
  exp.rounds = 160;
  exp.apply_flags(flags);
  const double overcommit = flags.get_double("overcommit", 0.5);
  const double deadline_q = flags.get_double("deadline", 0.9);
  const double corruption = flags.get_double("corruption", 0.0);
  const double straggler = flags.get_double("straggler", 0.0);
  const double flaky = flags.get_double("flaky", 0.0);
  const double flaky_boost = flags.get_double("flaky-boost", 4.0);
  const std::string csv = flags.get_string("csv", "");
  flags.check_unused();

  bench::print_header(
      "Faults — mid-round crash sweep with deadline-based over-selection",
      std::to_string(exp.num_clients) + " clients, " +
          std::to_string(exp.clients_per_round) +
          "/round, crash rates {0,5,15,30}%, overcommit " +
          std::to_string(overcommit) + ", deadline q" +
          std::to_string(deadline_q),
      "hardened rounds (over-select + deadline) recover most of the clean "
      "TTA at every crash rate; HACCS degrades least (same-cluster "
      "re-sampling keeps every distribution represented)");

  auto gen = exp.make_generator();
  Rng rng(exp.seed);
  const auto fed =
      data::partition_majority_label(gen, exp.make_partition_config(), rng);
  core::HaccsConfig haccs;
  haccs.rho = 0.5;

  const std::vector<double> crash_rates = {0.0, 0.05, 0.15, 0.30};
  const std::vector<std::string> strategies = {"random", "tifl", "oort",
                                               "haccs-pxy"};
  const double target = 0.7;

  Table table({"strategy", "crash_rate", "hardened", "tta@70% (s)",
               "final_acc", "dispatched", "wasted", "waste_frac"});
  for (double crash_rate : crash_rates) {
    for (int hardened = 0; hardened <= 1; ++hardened) {
      auto engine = exp.make_engine_config(fed);
      engine.faults.crash_rate = crash_rate;
      engine.faults.corruption_rate = corruption;
      engine.faults.straggler_rate = straggler;
      engine.faults.flaky_fraction = flaky;
      engine.faults.flaky_crash_boost = flaky_boost;
      engine.faults.seed = exp.seed + 977;
      if (hardened) {
        engine.overcommit = overcommit;
        engine.deadline_quantile = deadline_q;
      }
      for (const auto& slug : strategies) {
        std::fprintf(stderr, "  crash=%.0f%% %s %s...\n", 100.0 * crash_rate,
                     hardened ? "hardened" : "plain", slug.c_str());
        const auto [name, history] =
            bench::run_strategy(slug, fed, engine, haccs, nullptr);
        const std::size_t dispatched = history.total_dispatched();
        const std::size_t wasted = history.total_wasted();
        table.add_row(
            {name, Table::num(crash_rate, 2), hardened ? "yes" : "no",
             fl::format_tta(history.time_to_accuracy(target)),
             Table::num(history.final_accuracy(), 3),
             std::to_string(dispatched), std::to_string(wasted),
             Table::num(dispatched > 0 ? static_cast<double>(wasted) /
                                             static_cast<double>(dispatched)
                                       : 0.0,
                        3)});
      }
    }
  }
  table.print();
  if (!csv.empty()) table.write_csv(csv + "_faults.csv");
  return 0;
}
