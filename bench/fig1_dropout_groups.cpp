// Fig. 1 — The motivating dropout experiment (paper §III).
//
// 100 clients partitioned by Table I (10 groups x 2 classes), 20 selected
// per epoch, random selection. Two policies, 80/100 devices dropped from the
// start: (a) randomly chosen devices, (b) eight whole groups. The paper's
// finding: per-group accuracy survives random dropout (every distribution
// keeps a representative) but collapses for fully-dropped groups — unless
// the group's classes also appear in a surviving group.
//
// Flags: --rounds=N --seed=N --full --csv=<path>
#include <cstdio>

#include "bench/harness.hpp"
#include "src/common/table.hpp"

int main(int argc, char** argv) {
  using namespace haccs;
  const Flags flags(argc, argv);
  bench::ExperimentConfig exp;
  exp.dataset = bench::DatasetKind::MnistLike;
  exp.num_clients = 100;
  exp.clients_per_round = 20;
  exp.rounds = 100;
  exp.apply_flags(flags);
  const std::string csv = flags.get_string("csv", "");
  flags.check_unused();

  bench::print_header(
      "Fig. 1 — dropout with Table I group partition",
      "100 clients in 10 groups of 2 classes (Table I), 20/round, random "
      "selection, 80 devices dropped permanently",
      "1a: random dropout leaves every group's accuracy intact; 1b: fully "
      "dropped groups collapse, except where their classes survive in a "
      "participating group");

  auto gen = exp.make_generator();
  Rng rng(exp.seed);
  data::PartitionConfig pcfg = exp.make_partition_config();
  pcfg.num_clients = exp.num_clients;
  const auto fed = data::partition_group_table(gen, pcfg, rng);

  auto engine_config = exp.make_engine_config(fed);

  // The groups dropped in policy (b): groups 0-7 (80 devices). Their classes
  // are {6,7},{1,4},{5,9},{2,3},{0,4},{2,5},{6,8},{0,9}; survivors are
  // groups 8 {7,8} and 9 {1,3} — so classes 7, 8, 1, 3 stay represented.
  const std::vector<int> dropped_groups = {0, 1, 2, 3, 4, 5, 6, 7};

  auto run_policy = [&](const sim::DropoutSchedule& schedule) {
    fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                                 engine_config);
    const auto selector =
        bench::make_selector("random", fed, engine_config, {});
    trainer.run(*selector, schedule);
    return trainer.final_per_client_accuracy();
  };

  std::fprintf(stderr, "  policy (a): random permanent dropout...\n");
  const auto random_schedule = sim::make_permanent_random_dropout(
      exp.num_clients, 80, 0, exp.seed + 17);
  const auto acc_random = run_policy(*random_schedule);

  std::fprintf(stderr, "  policy (b): whole-group dropout...\n");
  const auto group_schedule =
      sim::make_group_dropout(fed.true_group, dropped_groups, 0);
  const auto acc_group = run_policy(*group_schedule);

  // Aggregate per group.
  auto per_group = [&](const std::vector<double>& acc) {
    std::vector<double> group_acc(10, 0.0);
    std::vector<std::size_t> group_n(10, 0);
    for (std::size_t i = 0; i < acc.size(); ++i) {
      group_acc[static_cast<std::size_t>(fed.true_group[i])] += acc[i];
      ++group_n[static_cast<std::size_t>(fed.true_group[i])];
    }
    for (std::size_t g = 0; g < 10; ++g) {
      group_acc[g] /= static_cast<double>(group_n[g]);
    }
    return group_acc;
  };
  const auto ga_random = per_group(acc_random);
  const auto ga_group = per_group(acc_group);

  const auto table_classes = data::group_partition_table();
  Table table({"group", "classes", "acc_random_dropout (1a)",
               "acc_group_dropout (1b)", "dropped_in_1b",
               "classes_survive_in_1b"});
  for (std::size_t g = 0; g < 10; ++g) {
    const bool dropped = g < 8;
    // A class survives policy (b) if it appears in group 8 or 9.
    auto survives = [&](int cls) {
      for (std::size_t s : {8u, 9u}) {
        if (table_classes[s][0] == cls || table_classes[s][1] == cls) {
          return true;
        }
      }
      return false;
    };
    const bool any_survive = survives(table_classes[g][0]) ||
                             survives(table_classes[g][1]);
    table.add_row({std::to_string(g),
                   std::to_string(table_classes[g][0]) + "," +
                       std::to_string(table_classes[g][1]),
                   Table::num(ga_random[g], 3), Table::num(ga_group[g], 3),
                   dropped ? "yes" : "no", any_survive ? "partly" : "no"});
  }
  table.print();
  if (!csv.empty()) table.write_csv(csv);

  // Summary rows mirroring the paper's reading of the figure.
  double random_min = 1.0, surviving = 0.0, collapsed = 0.0;
  int n_surv = 0, n_coll = 0;
  for (std::size_t g = 0; g < 10; ++g) {
    random_min = std::min(random_min, ga_random[g]);
    if (g < 8) {
      ++n_coll;
      collapsed += ga_group[g];
    } else {
      ++n_surv;
      surviving += ga_group[g];
    }
  }
  std::printf("\nsummary: min group accuracy under random dropout = %.3f\n",
              random_min);
  std::printf("         mean accuracy of surviving groups (1b)   = %.3f\n",
              surviving / n_surv);
  std::printf("         mean accuracy of dropped groups (1b)     = %.3f\n",
              collapsed / n_coll);
  return 0;
}
