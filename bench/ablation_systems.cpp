// Ablation — systems mechanisms orthogonal to client selection:
// synchronous vs asynchronous aggregation, and uplink update compression.
//
// Both attack the same straggler problem HACCS schedules around, from
// different angles: async removes the round barrier entirely (fast devices
// stream updates at their own pace, stale updates discounted), compression
// shrinks the slow devices' dominant cost (transfer at 1-25 Mbps). Each is
// run under Random and HACCS-P(y) selection on the Fig. 5 workload, so the
// table shows how the mechanisms compose with scheduling.
//
// Flags: --rounds=N --seed=N --csv=<path>
#include <cstdio>

#include "bench/harness.hpp"
#include "src/common/table.hpp"
#include "src/fl/async_engine.hpp"

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
      "Ablation — aggregation mode and uplink compression (femnist-like)",
      "sync FedAvg vs async buffered aggregation; dense vs top-k/int8 uplinks",
      "async reaches targets in less simulated time than straggler-gated "
      "sync; compression helps most under sync Random (which keeps picking "
      "slow uplinks); both compose with HACCS");

  auto gen = exp.make_generator();
  Rng rng(exp.seed);
  const auto fed =
      data::partition_majority_label(gen, exp.make_partition_config(), rng);
  const auto base_engine = exp.make_engine_config(fed);

  Table table({"mechanism", "selector", "tta@50% (s)", "tta@80% (s)",
               "final_acc"});

  core::HaccsConfig haccs;
  haccs.rho = 0.5;

  auto run_sync = [&](const std::string& label, const std::string& strategy,
                      fl::CompressionConfig compression) {
    std::fprintf(stderr, "  sync %s / %s...\n", label.c_str(),
                 strategy.c_str());
    auto engine = base_engine;
    engine.compression = compression;
    const auto run = bench::run_strategy(strategy, fed, engine, haccs);
    table.add_row({label, run.name,
                   fl::format_tta(run.history.time_to_accuracy(0.5)),
                   fl::format_tta(run.history.time_to_accuracy(0.8)),
                   Table::num(run.history.final_accuracy(), 3)});
  };

  auto run_async = [&](const std::string& strategy) {
    std::fprintf(stderr, "  async / %s...\n", strategy.c_str());
    fl::AsyncEngineConfig async_cfg;
    async_cfg.aggregations = base_engine.rounds;
    async_cfg.max_in_flight = base_engine.clients_per_round;
    async_cfg.buffer_size = base_engine.clients_per_round / 2;
    async_cfg.local = base_engine.local;
    async_cfg.latency = base_engine.latency;
    async_cfg.eval_every = base_engine.eval_every;
    async_cfg.initial_loss = base_engine.initial_loss;
    async_cfg.seed = base_engine.seed;
    fl::AsyncFederatedTrainer trainer(
        fed, core::default_model_factory(fed, 99), async_cfg);
    const auto selector =
        bench::make_selector(strategy, fed, base_engine, haccs);
    const auto history = trainer.run(*selector);
    table.add_row({"async (buffer=" + std::to_string(async_cfg.buffer_size) +
                       ", staleness-weighted)",
                   selector->name(),
                   fl::format_tta(history.time_to_accuracy(0.5)),
                   fl::format_tta(history.time_to_accuracy(0.8)),
                   Table::num(history.final_accuracy(), 3)});
  };

  fl::CompressionConfig dense;
  fl::CompressionConfig topk;
  topk.kind = fl::CompressionKind::TopK;
  topk.topk_fraction = 0.1;
  fl::CompressionConfig int8;
  int8.kind = fl::CompressionKind::Int8;

  for (const std::string strategy : {"random", "haccs-py"}) {
    run_sync("sync, dense uplink", strategy, dense);
    run_sync("sync, top-k(10%) uplink", strategy, topk);
    run_sync("sync, int8 uplink", strategy, int8);
    run_async(strategy);
  }
  table.print();
  if (!csv.empty()) table.write_csv(csv);
  return 0;
}
