// Selector zoo under a hostile world — six strategies, benign vs hostile.
//
// Compares the three baselines (TiFL, Oort, HACCS-P(y)) against the three
// literature selectors added with the zoo (DPP, FedLECC, HiCS) on an
// identical substrate, twice: a benign run (full availability, no faults)
// and a hostile composite stacking the scenario engine's shapes — a diurnal
// availability wave intersected with a correlated regional outage, 10%
// mid-round crashes under a q0.9 round deadline, an adversarial
// targeted-straggler cohort from mid-run, plus a label-drift shock that
// redraws 30% of clients' mixtures halfway through. Columns are
// the headline pair from the issue: rounds-to-target-accuracy and wasted
// client-rounds (dispatched but never aggregated).
//
// Expectation: under the benign run the cluster-aware selectors (HACCS,
// FedLECC) and the diversity kernel (DPP) reach the target in comparable
// rounds; under the hostile composite HACCS degrades least (report_failure
// re-samples a same-cluster stand-in and the drift shock triggers
// re-clustering), while latency-greedy strategies bleed rounds to the
// targeted cohort and waste climbs for everyone.
//
// Flags: --rounds=N --seed=N --full --target=F --csv=<prefix>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "src/common/table.hpp"
#include "src/sim/hostile.hpp"

int main(int argc, char** argv) {
  using namespace haccs;
  const Flags flags(argc, argv);
  bench::ExperimentConfig exp;
  exp.dataset = bench::DatasetKind::FemnistLike;
  exp.rounds = 160;
  exp.apply_flags(flags);
  const double target = flags.get_double("target", 0.7);
  const std::string csv = flags.get_string("csv", "");
  flags.check_unused();

  bench::print_header(
      "Selector zoo — six strategies, benign vs hostile world",
      std::to_string(exp.num_clients) + " clients, " +
          std::to_string(exp.clients_per_round) + "/round, " +
          std::to_string(exp.rounds) +
          " rounds; hostile = diurnal wave ∧ regional outage + 10% crashes "
          "under a q0.9 deadline + targeted stragglers + 30% label drift",
      "cluster-aware selectors (HACCS, FedLECC) lose the fewest rounds to "
      "the hostile composite; latency-greedy ranking bleeds rounds to the "
      "targeted cohort and every strategy's waste climbs");

  auto gen = exp.make_generator();
  Rng rng(exp.seed);
  const auto fed =
      data::partition_majority_label(gen, exp.make_partition_config(), rng);
  core::HaccsConfig haccs;
  haccs.rho = 0.5;

  const std::vector<std::string> strategies = {"tifl", "oort",    "haccs-py",
                                               "dpp",  "fedlecc", "hics"};

  // The hostile availability mask: a diurnal wave (30% trough every 12
  // epochs) intersected with a regional outage (1 of 4 regions dark for the
  // middle half of the run). Same composition the scenario engine uses.
  const std::size_t quarter = exp.rounds / 4;
  const auto hostile_schedule = sim::make_intersection(
      sim::make_diurnal_wave(exp.num_clients, 0.3, 12, exp.seed + 211),
      sim::make_regional_outage(exp.num_clients, 4, 0.25, quarter,
                                2 * quarter, exp.seed + 211));

  Table table({"strategy", "world", "rounds@" + Table::num(target, 2),
               "tta (s)", "final_acc", "dispatched", "wasted", "waste_frac"});
  for (int hostile = 0; hostile <= 1; ++hostile) {
    for (const auto& slug : strategies) {
      std::fprintf(stderr, "  %s %s...\n", hostile ? "hostile" : "benign",
                   slug.c_str());
      // Drift mutates the dataset in place (the trainer holds a const
      // reference), so every run gets its own working copy.
      data::FederatedDataset working = fed;
      auto engine = exp.make_engine_config(working);
      const sim::DropoutSchedule* schedule = nullptr;
      if (hostile) {
        schedule = hostile_schedule.get();
        engine.faults.crash_rate = 0.1;
        sim::apply_targeted_stragglers(engine.faults,
                                       sim::HostileKind::TargetedStragglers,
                                       0.2, quarter);
        engine.faults.seed = exp.seed + 977;
        // A deadline turns the targeted cohort's slowdown into real waste
        // (late updates are discarded) instead of an unbounded round stall.
        engine.deadline_quantile = 0.9;
        engine.on_epoch_begin =
            sim::make_drift_hook(sim::HostileKind::Drift, working, gen, 0.3,
                                 2 * quarter, exp.seed);
      }
      const auto [name, history] =
          bench::run_strategy(slug, working, engine, haccs, schedule);
      const std::size_t rounds = history.epochs_to_accuracy(target);
      const std::size_t dispatched = history.total_dispatched();
      const std::size_t wasted = history.total_wasted();
      table.add_row(
          {name, hostile ? "hostile" : "benign",
           rounds == static_cast<std::size_t>(-1) ? "never"
                                                  : std::to_string(rounds),
           fl::format_tta(history.time_to_accuracy(target)),
           Table::num(history.final_accuracy(), 3), std::to_string(dispatched),
           std::to_string(wasted),
           Table::num(dispatched > 0 ? static_cast<double>(wasted) /
                                           static_cast<double>(dispatched)
                                     : 0.0,
                      3)});
    }
  }
  table.print();
  if (!csv.empty()) table.write_csv(csv + "_selector_zoo.csv");
  return 0;
}
