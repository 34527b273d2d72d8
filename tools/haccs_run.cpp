// haccs_run — the command-line experiment driver.
//
// One binary to run any federated training experiment this library
// supports, entirely from flags: pick a dataset family, a partition, a
// selection strategy, heterogeneity and privacy knobs, optional dropout,
// train, and emit TTA rows / CSV curves / a model checkpoint.
//
//   haccs_run --strategy=haccs-py --partition=majority --rounds=200
//   haccs_run --strategy=oort --partition=dirichlet --alpha=0.3
//   haccs_run --strategy=haccs-pxy --dropout=0.1 --epsilon=0.1
//             --save-model=/tmp/model.bin --csv=/tmp/run
//
// Strategies: every selector registry name (src/core/selector_registry.hpp)
// Partitions: majority | iid | klabels | feature-skew | dirichlet | groups
// Hostile-world shapes (--hostile): flash-crowd | diurnal | outage | drift |
//             targeted-stragglers
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "src/common/table.hpp"
#include "src/fl/run_summary.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"
#include "src/nn/serialize.hpp"

namespace {

void print_usage() {
  std::printf(
      "haccs_run — federated training experiment driver\n"
      "  --strategy=S    %s (default haccs-py)\n"
      "  --partition=P   majority|iid|klabels|feature-skew|dirichlet|groups "
      "(default majority)\n"
      "  --dataset=D     mnist|femnist|cifar (default femnist)\n"
      "  --clients=N --per-round=K --rounds=R --classes=C --seed=N --full\n"
      "  --k=N           labels per client for --partition=klabels (default 5)\n"
      "  --alpha=A       Dirichlet concentration (default 0.5)\n"
      "  --rotation=DEG  feature-skew rotation (default 45)\n"
      "  --rho=R         Eq. 7 trade-off (default 0.5)\n"
      "  --epsilon=E     DP budget for summaries (default: no noise)\n"
      "  --mechanism=M   laplace|gaussian DP noise for --epsilon (default "
      "laplace)\n"
      "  --dropout=F     per-epoch unavailable fraction (default 0)\n"
      "  --recluster=N   re-cluster every N epochs (default 0 = static)\n"
      "hostile-world shapes (TESTING.md):\n"
      "  --hostile=K     flash-crowd|diurnal|outage|drift|targeted-stragglers\n"
      "  --hostile-frac=F  affected fraction of clients/regions (default 0.3)\n"
      "  --hostile-at=N    epoch the shape arms at (default 1)\n"
      "  --hostile-span=N  duration / period knob (default 2)\n"
      "scaling (DESIGN.md §5h):\n"
      "  --scale         route clustering through the sketch/shard pipeline\n"
      "  --scale-shard=N          max clients per clustering shard (default 1024)\n"
      "  --scale-sketch-dim=N     sketch embedding width (default 32)\n"
      "  --scale-exact-cutoff=N   dense exact matrix at/below this shard size\n"
      "                           (default 256)\n"
      "  --scale-dirty=F          churn fraction triggering incremental\n"
      "                           re-cluster (default 0.05)\n"
      "  --fedprox       use the FedProx local objective\n"
      "  --mu=M          FedProx proximal coefficient (default 0.01)\n"
      "  --targets=CSV   accuracy targets, e.g. 0.5,0.7,0.8\n"
      "  --save-model=F  write final parameters as a checkpoint\n"
      "  --csv=PREFIX    write <prefix>_curve.csv\n"
      "telemetry (DESIGN.md §5e):\n"
      "  --trace=F       write Chrome trace-event JSON (open in Perfetto)\n"
      "  --metrics=F     write metrics registry snapshot JSON\n"
      "  --events=F      write per-round structured events (JSONL)\n"
      "  --log-level=L   debug|info|warn|error|off (default info)\n"
      "  --summary-json=F  write machine-readable run summary JSON\n"
      "  --help          this text\n",
      haccs::core::selector_usage().c_str());
}

std::vector<double> parse_targets(const std::string& csv) {
  std::vector<double> out;
  std::size_t start = 0;
  while (start < csv.size()) {
    auto comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    const std::string item = csv.substr(start, comma - start);
    std::size_t used = 0;
    try {
      out.push_back(std::stod(item, &used));
    } catch (const std::exception&) {
      used = 0;
    }
    if (used == 0 || used != item.size()) {
      throw std::invalid_argument(
          "flag --targets expects comma-separated numbers, got '" + item +
          "'");
    }
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace haccs;
  const auto wall_start = std::chrono::steady_clock::now();
  const Flags flags(argc, argv);
  if (flags.get_bool("help", false)) {
    print_usage();
    return 0;
  }

  bench::ExperimentConfig exp;
  exp.apply_flags(flags);
  const std::string strategy = flags.get_string("strategy", "haccs-py");
  const std::string partition = flags.get_string("partition", "majority");
  const auto k_labels = flags.get_count("k", 5);
  const double alpha = flags.get_double("alpha", 0.5);
  const double rotation = flags.get_double("rotation", 45.0);
  const double rho = flags.get_double("rho", 0.5);
  const double epsilon = flags.get_double("epsilon", 0.0);
  const std::string mechanism = flags.get_string("mechanism", "laplace");
  const double dropout_fraction = flags.get_double("dropout", 0.0);
  const std::string hostile = flags.get_string("hostile", "");
  const double hostile_frac = flags.get_double("hostile-frac", 0.3);
  const auto hostile_at = flags.get_count("hostile-at", 1);
  const auto hostile_span = flags.get_count("hostile-span", 2);
  const auto recluster = flags.get_count("recluster", 0);
  const bool scale_enabled = flags.get_bool("scale", false);
  const auto scale_shard = flags.get_count("scale-shard", 1024);
  const auto scale_sketch_dim = flags.get_count("scale-sketch-dim", 32);
  const auto scale_exact_cutoff = flags.get_count("scale-exact-cutoff", 256);
  const double scale_dirty = flags.get_double("scale-dirty", 0.05);
  const bool fedprox = flags.get_bool("fedprox", false);
  const double mu = flags.get_double("mu", 0.01);
  const auto targets = parse_targets(flags.get_string("targets", "0.5,0.7,0.8"));
  const std::string save_model = flags.get_string("save-model", "");
  const std::string csv = flags.get_string("csv", "");
  const std::string summary_json = flags.get_string("summary-json", "");
  flags.check_unused();

  // Reject bad names and an engine config the trainer would refuse before
  // any data is generated.
  core::selector_info(strategy);
  exp.check();
  const char* const kHostileShapes[] = {"",       "none",  "flash-crowd",
                                        "diurnal", "outage", "drift",
                                        "targeted-stragglers"};
  if (std::find(std::begin(kHostileShapes), std::end(kHostileShapes),
                hostile) == std::end(kHostileShapes)) {
    std::fprintf(stderr, "unknown hostile shape '%s' (--help for options)\n",
                 hostile.c_str());
    return 1;
  }
  if (mechanism != "laplace" && mechanism != "gaussian") {
    std::fprintf(stderr, "unknown mechanism '%s'\n", mechanism.c_str());
    return 1;
  }

  // ---- data ----
  auto gen = exp.make_generator();
  Rng rng(exp.seed);
  const auto pcfg = exp.make_partition_config();
  data::FederatedDataset fed;
  if (partition == "majority") {
    fed = data::partition_majority_label(gen, pcfg, rng);
  } else if (partition == "iid") {
    fed = data::partition_iid(gen, pcfg, rng);
  } else if (partition == "klabels") {
    fed = data::partition_k_random_labels(gen, pcfg, k_labels, rng);
  } else if (partition == "feature-skew") {
    fed = data::partition_feature_skew(gen, pcfg, rotation, rng);
  } else if (partition == "dirichlet") {
    fed = data::partition_dirichlet(gen, pcfg, alpha, rng);
  } else if (partition == "groups") {
    fed = data::partition_group_table(gen, pcfg, rng);
  } else {
    std::fprintf(stderr, "unknown partition '%s'\n", partition.c_str());
    return 1;
  }

  // ---- engine ----
  auto engine_config = exp.make_engine_config(fed);
  if (fedprox) {
    engine_config.algorithm = fl::LocalAlgorithm::FedProx;
    engine_config.fedprox_mu = mu;
  }
  if (hostile == "targeted-stragglers") {
    engine_config.faults.targeted_fraction = hostile_frac;
    engine_config.faults.targeted_from = hostile_at;
  } else if (hostile == "drift") {
    // Mid-training label-distribution drift: redraw a fraction of every
    // client's training labels at the trigger epoch. The trainer holds a
    // reference to `fed`, so the in-place mutation is what it trains on.
    engine_config.on_epoch_begin = [&fed, &gen, hostile_frac, hostile_at,
                                    seed = exp.seed + 307](std::size_t epoch) {
      if (epoch != hostile_at) return;
      Rng drift_rng(seed);
      data::apply_label_drift(fed, gen, hostile_frac, drift_rng);
    };
  }
  fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                               engine_config);

  // ---- strategy ----
  core::HaccsConfig haccs;
  haccs.rho = rho;
  haccs.recluster_every = recluster;
  haccs.scale.enabled = scale_enabled;
  haccs.scale.shard_size = scale_shard;
  haccs.scale.sketch_dim = scale_sketch_dim;
  haccs.scale.exact_cutoff = scale_exact_cutoff;
  haccs.scale.dirty_threshold = scale_dirty;
  if (epsilon > 0.0) {
    haccs.privacy = stats::PrivacyConfig{epsilon};
    if (mechanism == "gaussian") {
      haccs.privacy.mechanism = stats::NoiseMechanism::Gaussian;
    }
  }
  const auto selector =
      bench::make_selector(strategy, fed, engine_config, haccs);

  // ---- run ----
  std::fprintf(stderr, "running %s on %s/%s: %zu clients, %zu/round, %zu rounds\n",
               selector->name().c_str(), bench::to_string(exp.dataset).c_str(),
               partition.c_str(), fed.num_clients(),
               engine_config.clients_per_round, engine_config.rounds);
  std::unique_ptr<sim::DropoutSchedule> schedule;
  if (dropout_fraction > 0.0) {
    schedule = sim::make_per_epoch_dropout(fed.num_clients(), dropout_fraction,
                                           exp.seed + 101);
  }
  std::unique_ptr<sim::DropoutSchedule> shape;
  if (hostile == "flash-crowd") {
    shape = sim::make_flash_crowd(fed.num_clients(), hostile_frac, hostile_at,
                                  exp.seed + 211);
  } else if (hostile == "diurnal") {
    shape = sim::make_diurnal_wave(fed.num_clients(), hostile_frac,
                                   hostile_span + 1, exp.seed + 211);
  } else if (hostile == "outage") {
    shape = sim::make_regional_outage(fed.num_clients(), 4, hostile_frac,
                                      hostile_at, hostile_span, exp.seed + 211);
  }
  if (shape) {
    schedule = schedule ? sim::make_intersection(std::move(schedule),
                                                 std::move(shape))
                        : std::move(shape);
  }
  fl::TrainingHistory history;
  if (schedule) {
    history = trainer.run(*selector, *schedule);
  } else {
    history = trainer.run(*selector);
  }

  // ---- report ----
  Table summary({"metric", "value"});
  summary.add_row({"strategy", selector->name()});
  summary.add_row({"partition", partition});
  summary.add_row({"final_accuracy", Table::num(history.final_accuracy(), 4)});
  summary.add_row({"best_accuracy", Table::num(history.best_accuracy(), 4)});
  summary.add_row({"total_sim_time_s", Table::num(history.total_time(), 1)});
  summary.add_row(
      {"uplink_bytes", std::to_string(history.total_uplink_bytes())});
  summary.add_row(
      {"downlink_bytes", std::to_string(history.total_downlink_bytes())});
  for (double t : targets) {
    summary.add_row({"tta@" + Table::num(100 * t, 0) + "%",
                     fl::format_tta(history.time_to_accuracy(t))});
  }
  const auto counts = history.selection_counts(fed.num_clients());
  std::size_t included = 0;
  for (std::size_t c : counts) {
    if (c > 0) ++included;
  }
  summary.add_row({"devices_included", std::to_string(included) + "/" +
                                           std::to_string(fed.num_clients())});
  summary.print();

  if (!csv.empty()) {
    Table curve({"epoch", "sim_time_s", "accuracy"});
    double last = -1.0;
    for (const auto& r : history.records()) {
      if (r.global_accuracy == last) continue;
      last = r.global_accuracy;
      curve.add_row({std::to_string(r.epoch), Table::num(r.sim_time_s, 2),
                     Table::num(r.global_accuracy, 4)});
    }
    curve.write_csv(csv + "_curve.csv");
    std::fprintf(stderr, "wrote %s_curve.csv\n", csv.c_str());
  }

  if (!save_model.empty()) {
    auto model = core::default_model_factory(fed, 99)();
    model.set_parameters(trainer.final_parameters());
    nn::save_parameters(model, save_model);
    std::fprintf(stderr, "wrote trained checkpoint to %s\n",
                 save_model.c_str());
  }

  if (!summary_json.empty()) {
    std::size_t dispatched_total = 0, wasted_total = 0;
    for (const auto& r : history.records()) {
      dispatched_total += r.dispatched;
      wasted_total += r.wasted();
    }
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    obs::JsonObject tta;
    for (double t : targets) {
      const std::string key = Table::num(t, 2);
      tta.field(key.c_str(), history.time_to_accuracy(t));
    }
    obs::JsonObject o;
    o.field("strategy", selector->name())
        .field("partition", partition)
        .field("dataset", bench::to_string(exp.dataset))
        .field("rounds", engine_config.rounds)
        .field("clients", fed.num_clients())
        .field("per_round", engine_config.clients_per_round)
        .field("seed", exp.seed);
    fl::append_summary_history(o, history);
    o.field("wall_time_s", wall_s)
        .field("dispatched_client_rounds", dispatched_total)
        .field("wasted_client_rounds", wasted_total);
    fl::append_summary_counters(o);
    o.field_raw("tta_s", tta.str());
    if (!fl::write_summary_json(o, summary_json)) return 1;
  }

  // Telemetry artifacts would also be written by the atexit hook; flushing
  // here surfaces any write error while stderr is still in context.
  obs::flush();
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "haccs_run: %s\n", e.what());
  return 1;
}
