// Table III + Fig. 11 — Scheduling bias at rho = 0.01.
//
// Paper setup (§V-D5): the feature-skew workload trained for 200 epochs with
// a strong preference for loss over latency (rho = 0.01). Two readings:
//   * Table III — per cluster, the fraction of member devices included in
//     training at least once, bucketed 0-50% / 50-75% / 75-100%. Paper: no
//     cluster below 50%; most clusters (8/10 P(y), 30/31 P(X|y)) above 75%.
//   * Fig. 11 — per cluster, final-model accuracy difference between the
//     fastest and the slowest member. Paper: near zero, sometimes negative;
//     larger positive gaps for P(y) clusters (hidden feature skew).
//
// Flags: --rounds=N --seed=N --full --rho=R --csv=<prefix>
#include <cstdio>

#include "bench/harness.hpp"
#include "src/common/table.hpp"
#include "src/core/haccs_selector.hpp"

int main(int argc, char** argv) {
  using namespace haccs;
  const Flags flags(argc, argv);
  bench::ExperimentConfig exp;
  exp.dataset = bench::DatasetKind::MnistLike;
  exp.rounds = 200;
  exp.apply_flags(flags);
  const double rho = flags.get_double("rho", 0.01);
  const std::string csv = flags.get_string("csv", "");
  flags.check_unused();

  bench::print_header(
      "Table III + Fig. 11 — scheduling bias at rho=" + Table::num(rho, 2),
      "feature-skew workload (45 deg), " + std::to_string(exp.rounds) +
          " epochs, HACCS P(y) and P(X|y)",
      "Table III: every cluster includes >= 50% of devices; most >= 75%. "
      "Fig. 11: fastest-vs-slowest accuracy gaps near zero, occasionally "
      "negative; P(y) shows the larger gaps (hidden feature skew)");

  auto gen = exp.make_generator();
  Rng rng(exp.seed);
  const auto fed = data::partition_feature_skew(
      gen, exp.make_partition_config(), 45.0, rng);
  const auto engine_config = exp.make_engine_config(fed);

  Table inclusion({"summary", "clusters", "0-50%", "50-75%", "75-100%"});
  Table gaps({"summary", "cluster", "members", "fastest_acc", "slowest_acc",
              "gap (fast - slow)"});

  for (const auto kind :
       {stats::SummaryKind::Response, stats::SummaryKind::Conditional}) {
    core::HaccsConfig cfg;
    cfg.summary = kind;
    cfg.rho = rho;
    cfg.initial_loss = engine_config.initial_loss;
    core::HaccsSelector selector(fed, cfg);
    std::fprintf(stderr, "  running HACCS-%s (%zu clusters)...\n",
                 stats::to_string(kind).c_str(), selector.num_clusters());

    fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                                 engine_config);
    const auto history = trainer.run(selector);
    const auto counts = history.selection_counts(fed.num_clients());
    const auto& accuracy = trainer.final_per_client_accuracy();

    // Table III buckets.
    int bucket_low = 0, bucket_mid = 0, bucket_high = 0;
    for (const auto& members : selector.clusters()) {
      std::size_t included = 0;
      for (std::size_t id : members) {
        if (counts[id] > 0) ++included;
      }
      const double fraction =
          static_cast<double>(included) / static_cast<double>(members.size());
      if (fraction <= 0.5) {
        ++bucket_low;
      } else if (fraction <= 0.75) {
        ++bucket_mid;
      } else {
        ++bucket_high;
      }
    }
    inclusion.add_row({stats::to_string(kind),
                       std::to_string(selector.num_clusters()),
                       std::to_string(bucket_low), std::to_string(bucket_mid),
                       std::to_string(bucket_high)});

    // Fig. 11 gaps: fastest vs slowest member by base latency.
    for (std::size_t c = 0; c < selector.clusters().size(); ++c) {
      const auto& members = selector.clusters()[c];
      std::size_t fastest = members[0], slowest = members[0];
      for (std::size_t id : members) {
        if (trainer.client_latency(id) < trainer.client_latency(fastest)) {
          fastest = id;
        }
        if (trainer.client_latency(id) > trainer.client_latency(slowest)) {
          slowest = id;
        }
      }
      const double gap = accuracy[fastest] - accuracy[slowest];
      gaps.add_row({stats::to_string(kind), std::to_string(c),
                    std::to_string(members.size()),
                    Table::num(accuracy[fastest], 3),
                    Table::num(accuracy[slowest], 3), Table::num(gap, 3)});
    }
  }

  std::printf("\nTable III — device inclusion over %zu epochs:\n", exp.rounds);
  inclusion.print();
  if (!csv.empty()) inclusion.write_csv(csv + "_table3.csv");
  std::printf("\nFig. 11 — accuracy gap fastest vs slowest per cluster:\n");
  gaps.print();
  if (!csv.empty()) gaps.write_csv(csv + "_fig11.csv");
  return 0;
}
