#include "bench/harness.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "src/common/logging.hpp"
#include "src/common/table.hpp"
#include "src/obs/obs.hpp"

namespace haccs::bench {

DatasetKind parse_dataset(const std::string& name) {
  if (name == "mnist") return DatasetKind::MnistLike;
  if (name == "femnist") return DatasetKind::FemnistLike;
  if (name == "cifar") return DatasetKind::CifarLike;
  throw std::invalid_argument("unknown dataset: " + name +
                              " (expected mnist|femnist|cifar)");
}

std::string to_string(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::MnistLike: return "mnist-like";
    case DatasetKind::FemnistLike: return "femnist-like";
    case DatasetKind::CifarLike: return "cifar-like";
  }
  throw std::invalid_argument("to_string: bad DatasetKind");
}

data::SyntheticImageGenerator ExperimentConfig::make_generator() const {
  data::SyntheticImageConfig cfg;
  switch (dataset) {
    case DatasetKind::MnistLike:
      cfg = data::SyntheticImageConfig::mnist_like();
      break;
    case DatasetKind::FemnistLike:
      cfg = data::SyntheticImageConfig::femnist_like(classes);
      break;
    case DatasetKind::CifarLike:
      cfg = data::SyntheticImageConfig::cifar_like();
      break;
  }
  cfg.classes = classes;
  if (!full_size) {
    cfg.height = 16;
    cfg.width = 16;
  }
  // Scale pixel noise so the task is hard enough that convergence spans many
  // rounds (the paper's accuracy curves rise gradually); without this the
  // synthetic classes separate almost immediately and every strategy looks
  // identical.
  cfg.noise_stddev *= noise_scale;
  return data::SyntheticImageGenerator(cfg);
}

namespace {

/// The engine config's fields that do not depend on the generated data.
fl::EngineConfig data_free_engine_config(const ExperimentConfig& exp) {
  fl::EngineConfig cfg;
  cfg.rounds = exp.rounds;
  cfg.clients_per_round = exp.clients_per_round;
  cfg.eval_every = exp.eval_every;
  cfg.seed = exp.seed;
  cfg.local.epochs = exp.local_epochs;
  cfg.local.batch_size = 32;
  cfg.local.sgd.learning_rate = exp.learning_rate;
  return cfg;
}

}  // namespace

void ExperimentConfig::check() const {
  fl::check_engine_config(data_free_engine_config(*this), num_clients);
}

fl::EngineConfig ExperimentConfig::make_engine_config(
    const data::FederatedDataset& fed) const {
  fl::EngineConfig cfg = data_free_engine_config(*this);
  // Size the serialized model like the MLP the default factory builds:
  // (C*H*W)*64 + 64*classes weights (+biases), 4 bytes each.
  const auto& shape = fed.clients.at(0).train.sample_shape();
  const std::size_t input = shape[0] * shape[1] * shape[2];
  cfg.latency.model_bytes = 4 * (input * 64 + 64 + 64 * fed.num_classes +
                                 fed.num_classes);
  cfg.latency.seconds_per_sample = 0.005;
  cfg.latency.local_epochs = local_epochs;
  cfg.initial_loss = std::log(static_cast<double>(fed.num_classes));
  return cfg;
}

data::PartitionConfig ExperimentConfig::make_partition_config() const {
  data::PartitionConfig cfg;
  cfg.num_clients = num_clients;
  cfg.min_samples = min_samples;
  cfg.max_samples = max_samples;
  cfg.test_samples = test_samples;
  // Per-device style jitter: real federated datasets differ per device in
  // features, not just labels (every FEMNIST writer has a hand). This gives
  // the P(X|y) summary genuine structure to measure.
  cfg.style_brightness_stddev = 0.2;
  cfg.style_contrast_stddev = 0.08;
  return cfg;
}

void ExperimentConfig::apply_flags(const Flags& flags) {
  dataset = parse_dataset(flags.get_string("dataset", "femnist"));
  full_size = flags.get_bool("full", false);
  rounds = flags.get_count("rounds", rounds);
  seed = static_cast<std::uint64_t>(flags.get_int("seed", static_cast<std::int64_t>(seed)));
  num_clients = flags.get_count("clients", num_clients);
  clients_per_round = flags.get_count("per-round", clients_per_round);
  classes = flags.get_count("classes", classes);
  noise_scale = flags.get_double("noise-scale", noise_scale);

  // Telemetry flags are shared by every binary that uses the harness.
  // obs::configure is a no-op (all pillars stay disabled) when no path is
  // given, so the default run carries only a relaxed atomic load per probe.
  const std::string level = flags.get_string("log-level", "");
  if (!level.empty()) set_log_level(parse_log_level(level));
  obs::Options obs_options;
  obs_options.trace_path = flags.get_string("trace", "");
  obs_options.metrics_path = flags.get_string("metrics", "");
  obs_options.events_path = flags.get_string("events", "");
  obs::configure(obs_options);
}

std::unique_ptr<fl::ClientSelector> make_selector(
    const std::string& slug, const data::FederatedDataset& fed,
    const fl::EngineConfig& engine_config,
    const core::HaccsConfig& haccs_config) {
  core::SelectorContext ctx;
  ctx.haccs = haccs_config;
  ctx.haccs.initial_loss = engine_config.initial_loss;
  ctx.rounds = engine_config.rounds;
  ctx.dataset = &fed;
  return core::make_selector(slug, ctx);
}

StrategyRun run_strategy(const std::string& slug,
                         const data::FederatedDataset& fed,
                         const fl::EngineConfig& engine_config,
                         const core::HaccsConfig& haccs_config,
                         const sim::DropoutSchedule* dropout) {
  fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                               engine_config);
  const auto selector = make_selector(slug, fed, engine_config, haccs_config);
  return {selector->name(), dropout ? trainer.run(*selector, *dropout)
                                    : trainer.run(*selector)};
}

std::vector<StrategyRun> run_all_strategies(
    const data::FederatedDataset& fed, const fl::EngineConfig& engine_config,
    const core::HaccsConfig& haccs_config,
    const sim::DropoutSchedule* dropout) {
  std::vector<StrategyRun> runs;
  for (const std::string slug :
       {"random", "tifl", "oort", "haccs-py", "haccs-pxy"}) {
    std::fprintf(stderr, "  running %s...\n", slug.c_str());
    runs.push_back(
        run_strategy(slug, fed, engine_config, haccs_config, dropout));
  }
  return runs;
}

std::map<std::string, std::map<double, double>> print_tta_table(
    const std::vector<StrategyRun>& runs, const std::vector<double>& targets,
    const std::string& csv_path) {
  std::vector<std::string> header = {"strategy"};
  for (double t : targets) {
    header.push_back("tta@" + Table::num(100.0 * t, 0) + "% (s)");
  }
  header.push_back("final_acc");
  header.push_back("best_acc");
  header.push_back("uplink_mb");
  header.push_back("downlink_mb");
  Table table(header);

  std::map<std::string, std::map<double, double>> out;
  for (const auto& run : runs) {
    std::vector<std::string> row = {run.name};
    for (double t : targets) {
      const double tta = run.history.time_to_accuracy(t);
      out[run.name][t] = tta;
      row.push_back(fl::format_tta(tta));
    }
    row.push_back(Table::num(run.history.final_accuracy(), 3));
    row.push_back(Table::num(run.history.best_accuracy(), 3));
    // Communication totals, priced as real wire frames (fl/protocol.hpp).
    constexpr double kMiB = 1024.0 * 1024.0;
    row.push_back(Table::num(
        static_cast<double>(run.history.total_uplink_bytes()) / kMiB, 2));
    row.push_back(Table::num(
        static_cast<double>(run.history.total_downlink_bytes()) / kMiB, 2));
    table.add_row(std::move(row));
  }
  table.print();
  if (!csv_path.empty()) table.write_csv(csv_path);
  return out;
}

void print_curves(const std::vector<StrategyRun>& runs,
                  const std::string& csv_path) {
  Table table({"strategy", "epoch", "sim_time_s", "accuracy"});
  for (const auto& run : runs) {
    double last_reported = -1.0;
    for (const auto& r : run.history.records()) {
      // Only emit actual evaluation points (accuracy carries forward
      // between evals — skip unchanged duplicates).
      if (r.global_accuracy == last_reported) continue;
      last_reported = r.global_accuracy;
      table.add_row({run.name, std::to_string(r.epoch),
                     Table::num(r.sim_time_s, 1),
                     Table::num(r.global_accuracy, 4)});
    }
  }
  table.print();
  if (!csv_path.empty()) table.write_csv(csv_path);
}

void print_header(const std::string& experiment, const std::string& workload,
                  const std::string& paper_expectation) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("workload: %s\n", workload.c_str());
  std::printf("paper expectation: %s\n", paper_expectation.c_str());
  std::printf("==============================================================\n");
}

}  // namespace haccs::bench
