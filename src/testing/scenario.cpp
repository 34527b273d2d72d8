#include "src/testing/scenario.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/haccs_system.hpp"
#include "src/core/selector_registry.hpp"
#include "src/data/synthetic.hpp"
#include "src/sim/dropout.hpp"

namespace haccs::testing {

namespace {

template <typename T>
T pick(Rng& rng, std::initializer_list<T> options) {
  const auto* begin = options.begin();
  return begin[rng.uniform_index(options.size())];
}

std::string format_double(double v) {
  std::ostringstream os;
  os << v;  // shortest round-trippable form for the grid values we draw
  return os.str();
}

}  // namespace

std::string to_string(PartitionKind kind) {
  switch (kind) {
    case PartitionKind::Majority: return "majority";
    case PartitionKind::Iid: return "iid";
    case PartitionKind::KLabels: return "klabels";
    case PartitionKind::Dirichlet: return "dirichlet";
    case PartitionKind::FeatureSkew: return "feature-skew";
  }
  throw std::invalid_argument("bad PartitionKind");
}

std::string to_string(HostileKind kind) {
  switch (kind) {
    case HostileKind::None: return "none";
    case HostileKind::FlashCrowd: return "flash-crowd";
    case HostileKind::Diurnal: return "diurnal";
    case HostileKind::Outage: return "outage";
    case HostileKind::Drift: return "drift";
    case HostileKind::TargetedStragglers: return "targeted-stragglers";
  }
  throw std::invalid_argument("bad HostileKind");
}

PartitionKind parse_partition_kind(const std::string& name) {
  if (name == "majority") return PartitionKind::Majority;
  if (name == "iid") return PartitionKind::Iid;
  if (name == "klabels") return PartitionKind::KLabels;
  if (name == "dirichlet") return PartitionKind::Dirichlet;
  if (name == "feature-skew") return PartitionKind::FeatureSkew;
  throw std::invalid_argument("unknown partition kind: " + name);
}

HostileKind parse_hostile_kind(const std::string& name) {
  if (name == "none") return HostileKind::None;
  if (name == "flash-crowd") return HostileKind::FlashCrowd;
  if (name == "diurnal") return HostileKind::Diurnal;
  if (name == "outage") return HostileKind::Outage;
  if (name == "drift") return HostileKind::Drift;
  if (name == "targeted-stragglers") return HostileKind::TargetedStragglers;
  throw std::invalid_argument("unknown hostile kind: " + name);
}

namespace {

std::string algorithm_name(core::ClusterAlgorithm a) {
  return a == core::ClusterAlgorithm::Optics ? "optics" : "dbscan";
}

core::ClusterAlgorithm parse_algorithm(const std::string& name) {
  if (name == "optics") return core::ClusterAlgorithm::Optics;
  if (name == "dbscan") return core::ClusterAlgorithm::Dbscan;
  throw std::invalid_argument("unknown clustering algorithm: " + name);
}

std::string extraction_name(core::Extraction e) {
  switch (e) {
    case core::Extraction::Auto: return "auto";
    case core::Extraction::Xi: return "xi";
    case core::Extraction::Dbscan: return "dbscan";
  }
  throw std::invalid_argument("bad Extraction");
}

core::Extraction parse_extraction(const std::string& name) {
  if (name == "auto") return core::Extraction::Auto;
  if (name == "xi") return core::Extraction::Xi;
  if (name == "dbscan") return core::Extraction::Dbscan;
  throw std::invalid_argument("unknown extraction: " + name);
}

std::string compression_name(fl::CompressionKind kind) {
  switch (kind) {
    case fl::CompressionKind::None: return "none";
    case fl::CompressionKind::TopK: return "topk";
    case fl::CompressionKind::Int8: return "int8";
  }
  throw std::invalid_argument("bad CompressionKind");
}

fl::CompressionKind parse_compression(const std::string& name) {
  if (name == "none") return fl::CompressionKind::None;
  if (name == "topk") return fl::CompressionKind::TopK;
  if (name == "int8") return fl::CompressionKind::Int8;
  throw std::invalid_argument("unknown compression kind: " + name);
}

std::string mechanism_name(stats::NoiseMechanism m) {
  return m == stats::NoiseMechanism::Laplace ? "laplace" : "gaussian";
}

stats::NoiseMechanism parse_mechanism(const std::string& name) {
  if (name == "laplace") return stats::NoiseMechanism::Laplace;
  if (name == "gaussian") return stats::NoiseMechanism::Gaussian;
  throw std::invalid_argument("unknown noise mechanism: " + name);
}

// Every key parse_spec_string understands, for the did-you-mean suggestion.
const char* const kSpecKeys[] = {
    "seed", "clients", "per_round", "rounds", "classes", "image",
    "min_samples", "max_samples", "test_samples", "partition", "klabels",
    "alpha", "rotation", "selector", "algorithm", "extraction", "distance",
    "rho", "epsilon", "mechanism", "compression", "topk_fraction", "crash",
    "corruption", "straggler", "overcommit", "deadline", "max_norm",
    "dropout", "fedprox", "workers", "chaos_drop", "chaos_dup",
    "chaos_reorder", "chaos_corrupt", "chaos_truncate", "chaos_disconnect",
    "hostile", "hostile_frac", "hostile_at", "hostile_span"};

std::size_t edit_distance(const std::string& a, const std::string& b) {
  // Plain Levenshtein, one rolling row; key names are short so O(|a||b|) is
  // nothing.
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t subst = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      diag = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
    }
  }
  return row[b.size()];
}

std::string unknown_key_message(const std::string& key) {
  std::string message = "unknown spec key: " + key;
  std::size_t best = std::string::npos;
  const char* best_key = nullptr;
  for (const char* candidate : kSpecKeys) {
    const std::size_t d = edit_distance(key, candidate);
    if (d < best) {
      best = d;
      best_key = candidate;
    }
  }
  // Only suggest when the typo is plausibly a typo of that key: within 3
  // edits or so — "chaos_dorp" suggests chaos_drop, "zzz" suggests nothing.
  if (best_key != nullptr && best <= std::max<std::size_t>(2, key.size() / 3)) {
    message += " (did you mean '" + std::string(best_key) + "'?)";
  }
  return message;
}

}  // namespace

ScenarioSpec generate_scenario(std::uint64_t seed) {
  // A dedicated stream, decorrelated from the engine's use of the same seed.
  Rng rng(seed ^ 0xf0220a7a5c0e3ULL);
  ScenarioSpec s;
  s.seed = seed;

  s.clients = 8 + rng.uniform_index(9);             // 8..16
  s.per_round = 2 + rng.uniform_index(3);           // 2..4
  s.rounds = 2 + rng.uniform_index(4);              // 2..5
  s.classes = pick(rng, {4ul, 6ul, 8ul});
  s.image = pick(rng, {8ul, 10ul});
  s.min_samples = 20 + rng.uniform_index(12);
  s.max_samples = s.min_samples + 8 + rng.uniform_index(24);
  s.test_samples = 6 + rng.uniform_index(6);

  s.partition = pick(rng, {PartitionKind::Majority, PartitionKind::Iid,
                           PartitionKind::KLabels, PartitionKind::Dirichlet,
                           PartitionKind::FeatureSkew});
  s.klabels = 2 + rng.uniform_index(3);
  s.alpha = pick(rng, {0.1, 0.3, 0.5, 1.0});
  s.rotation = pick(rng, {15.0, 30.0, 45.0});

  // A literal draw list, not the registry's name list: the order (and
  // haccs-py's double weight) is what keeps every seed's scenario stable.
  s.selector = pick(rng, {"random", "tifl", "oort", "haccs-py", "haccs-py",
                          "haccs-pxy", "haccs-qxy", "stratified", "dpp",
                          "fedlecc", "hics"});
  s.algorithm = pick(rng, {core::ClusterAlgorithm::Optics,
                           core::ClusterAlgorithm::Dbscan});
  s.extraction = pick(rng, {core::Extraction::Auto, core::Extraction::Auto,
                            core::Extraction::Xi, core::Extraction::Dbscan});
  s.distance = pick(rng, {stats::DistanceKind::Hellinger,
                          stats::DistanceKind::Hellinger,
                          stats::DistanceKind::TotalVariation,
                          stats::DistanceKind::JensenShannon,
                          stats::DistanceKind::Cosine});
  s.rho = pick(rng, {0.0, 0.25, 0.5, 0.75, 1.0});

  s.epsilon = pick(rng, {0.0, 0.0, 0.05, 0.1, 0.5, 2.0});
  s.mechanism = pick(rng, {stats::NoiseMechanism::Laplace,
                           stats::NoiseMechanism::Gaussian});

  s.compression = pick(rng, {fl::CompressionKind::None,
                             fl::CompressionKind::None,
                             fl::CompressionKind::TopK,
                             fl::CompressionKind::Int8});
  s.topk_fraction = pick(rng, {0.1, 0.2, 0.5});

  // Faults off for roughly half the scenarios so the clean-path invariants
  // (and exact byte accounting) stay heavily exercised too.
  if (rng.bernoulli(0.5)) {
    s.crash_rate = pick(rng, {0.0, 0.1, 0.25});
    s.corruption_rate = pick(rng, {0.0, 0.1, 0.2});
    s.straggler_rate = pick(rng, {0.0, 0.1, 0.3});
  }
  s.overcommit = pick(rng, {0.0, 0.0, 0.34, 0.5});
  s.deadline_quantile = pick(rng, {0.0, 0.0, 0.8, 0.9});
  s.max_update_norm = pick(rng, {0.0, 0.0, 50.0});
  s.dropout = pick(rng, {0.0, 0.0, 0.1, 0.3});

  s.fedprox = rng.bernoulli(0.25);
  s.workers = 1 + rng.uniform_index(3);  // 1..3

  // Transport chaos on ~1/4 of scenarios: rates stay small so runs finish
  // (every lost update costs a liveness/quorum timeout), but any non-zero
  // rate sends the scenario down the serving-mode collection path.
  if (rng.bernoulli(0.25)) {
    s.chaos_drop = pick(rng, {0.0, 0.05, 0.1});
    s.chaos_dup = pick(rng, {0.0, 0.05});
    s.chaos_reorder = pick(rng, {0.0, 0.1});
    s.chaos_corrupt = pick(rng, {0.0, 0.05});
    s.chaos_truncate = pick(rng, {0.0, 0.02});
    s.chaos_disconnect = pick(rng, {0.0, 0.0, 0.02});
  }

  // Hostile-world shapes on ~30% of scenarios: one time-structured adversity
  // per spec (TESTING.md). hostile_at = 1 always lands mid-run (rounds >= 2),
  // so the selector sees both the benign and hostile regimes in one run.
  if (rng.bernoulli(0.3)) {
    s.hostile = pick(rng, {HostileKind::FlashCrowd, HostileKind::Diurnal,
                           HostileKind::Outage, HostileKind::Drift,
                           HostileKind::TargetedStragglers});
    s.hostile_frac = pick(rng, {0.2, 0.3, 0.5});
    s.hostile_at = 1;
    s.hostile_span = 1 + rng.uniform_index(3);  // 1..3
  }

  validate_spec(s);
  return s;
}

void validate_spec(const ScenarioSpec& s) {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("bad scenario spec: " + what);
  };
  if (s.clients == 0 || s.clients > 512) fail("clients out of range");
  if (s.per_round == 0 || s.per_round > s.clients) fail("per_round > clients");
  if (s.rounds == 0 || s.rounds > 64) fail("rounds out of range");
  if (s.classes < 2 || s.classes > 62) fail("classes out of range");
  if (s.image < 6 || s.image > 32) fail("image out of range");
  if (s.min_samples == 0 || s.max_samples < s.min_samples) {
    fail("sample range");
  }
  if (s.test_samples == 0) fail("test_samples == 0");
  try {
    core::selector_info(s.selector);
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  }
  if (s.rho < 0.0 || s.rho > 1.0) fail("rho outside [0, 1]");
  if (s.epsilon < 0.0) fail("epsilon < 0");
  if (s.topk_fraction <= 0.0 || s.topk_fraction > 1.0) fail("topk_fraction");
  for (double rate : {s.crash_rate, s.corruption_rate, s.straggler_rate}) {
    if (rate < 0.0 || rate > 1.0) fail("fault rate outside [0, 1]");
  }
  if (s.overcommit < 0.0) fail("overcommit < 0");
  if (s.deadline_quantile < 0.0 || s.deadline_quantile > 1.0) {
    fail("deadline_quantile outside [0, 1]");
  }
  if (s.max_update_norm < 0.0) fail("max_update_norm < 0");
  if (s.dropout < 0.0 || s.dropout >= 1.0) fail("dropout outside [0, 1)");
  if (s.workers == 0 || s.workers > 8) fail("workers out of range");
  if (s.klabels == 0 || s.klabels > s.classes) fail("klabels out of range");
  if (s.alpha <= 0.0) fail("alpha <= 0");
  for (double rate : {s.chaos_drop, s.chaos_dup, s.chaos_reorder,
                      s.chaos_corrupt, s.chaos_truncate, s.chaos_disconnect}) {
    if (rate < 0.0 || rate > 1.0) fail("chaos rate outside [0, 1]");
  }
  if (s.hostile_frac < 0.0 || s.hostile_frac > 1.0) {
    fail("hostile_frac outside [0, 1]");
  }
  if (s.hostile_at > 64) fail("hostile_at out of range");
  if (s.hostile_span == 0 || s.hostile_span > 64) {
    fail("hostile_span out of range");
  }
}

std::string to_spec_string(const ScenarioSpec& s) {
  std::ostringstream os;
  os << "seed=" << s.seed << ",clients=" << s.clients
     << ",per_round=" << s.per_round << ",rounds=" << s.rounds
     << ",classes=" << s.classes << ",image=" << s.image
     << ",min_samples=" << s.min_samples << ",max_samples=" << s.max_samples
     << ",test_samples=" << s.test_samples
     << ",partition=" << to_string(s.partition) << ",klabels=" << s.klabels
     << ",alpha=" << format_double(s.alpha)
     << ",rotation=" << format_double(s.rotation)
     << ",selector=" << s.selector
     << ",algorithm=" << algorithm_name(s.algorithm)
     << ",extraction=" << extraction_name(s.extraction)
     << ",distance=" << stats::to_string(s.distance)
     << ",rho=" << format_double(s.rho)
     << ",epsilon=" << format_double(s.epsilon)
     << ",mechanism=" << mechanism_name(s.mechanism)
     << ",compression=" << compression_name(s.compression)
     << ",topk_fraction=" << format_double(s.topk_fraction)
     << ",crash=" << format_double(s.crash_rate)
     << ",corruption=" << format_double(s.corruption_rate)
     << ",straggler=" << format_double(s.straggler_rate)
     << ",overcommit=" << format_double(s.overcommit)
     << ",deadline=" << format_double(s.deadline_quantile)
     << ",max_norm=" << format_double(s.max_update_norm)
     << ",dropout=" << format_double(s.dropout)
     << ",fedprox=" << (s.fedprox ? 1 : 0) << ",workers=" << s.workers
     << ",chaos_drop=" << format_double(s.chaos_drop)
     << ",chaos_dup=" << format_double(s.chaos_dup)
     << ",chaos_reorder=" << format_double(s.chaos_reorder)
     << ",chaos_corrupt=" << format_double(s.chaos_corrupt)
     << ",chaos_truncate=" << format_double(s.chaos_truncate)
     << ",chaos_disconnect=" << format_double(s.chaos_disconnect)
     << ",hostile=" << to_string(s.hostile)
     << ",hostile_frac=" << format_double(s.hostile_frac)
     << ",hostile_at=" << s.hostile_at
     << ",hostile_span=" << s.hostile_span;
  return os.str();
}

ScenarioSpec parse_spec_string(const std::string& text) {
  ScenarioSpec s;
  std::size_t start = 0;
  while (start < text.size()) {
    auto comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(start, comma - start);
    start = comma + 1;
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("spec item without '=': " + item);
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    try {
      if (key == "seed") s.seed = std::stoull(value);
      else if (key == "clients") s.clients = std::stoul(value);
      else if (key == "per_round") s.per_round = std::stoul(value);
      else if (key == "rounds") s.rounds = std::stoul(value);
      else if (key == "classes") s.classes = std::stoul(value);
      else if (key == "image") s.image = std::stoul(value);
      else if (key == "min_samples") s.min_samples = std::stoul(value);
      else if (key == "max_samples") s.max_samples = std::stoul(value);
      else if (key == "test_samples") s.test_samples = std::stoul(value);
      else if (key == "partition") s.partition = parse_partition_kind(value);
      else if (key == "klabels") s.klabels = std::stoul(value);
      else if (key == "alpha") s.alpha = std::stod(value);
      else if (key == "rotation") s.rotation = std::stod(value);
      else if (key == "selector") s.selector = value;
      else if (key == "algorithm") s.algorithm = parse_algorithm(value);
      else if (key == "extraction") s.extraction = parse_extraction(value);
      else if (key == "distance") s.distance = stats::parse_distance_kind(value);
      else if (key == "rho") s.rho = std::stod(value);
      else if (key == "epsilon") s.epsilon = std::stod(value);
      else if (key == "mechanism") s.mechanism = parse_mechanism(value);
      else if (key == "compression") s.compression = parse_compression(value);
      else if (key == "topk_fraction") s.topk_fraction = std::stod(value);
      else if (key == "crash") s.crash_rate = std::stod(value);
      else if (key == "corruption") s.corruption_rate = std::stod(value);
      else if (key == "straggler") s.straggler_rate = std::stod(value);
      else if (key == "overcommit") s.overcommit = std::stod(value);
      else if (key == "deadline") s.deadline_quantile = std::stod(value);
      else if (key == "max_norm") s.max_update_norm = std::stod(value);
      else if (key == "dropout") s.dropout = std::stod(value);
      else if (key == "fedprox") s.fedprox = std::stoi(value) != 0;
      else if (key == "workers") s.workers = std::stoul(value);
      else if (key == "chaos_drop") s.chaos_drop = std::stod(value);
      else if (key == "chaos_dup") s.chaos_dup = std::stod(value);
      else if (key == "chaos_reorder") s.chaos_reorder = std::stod(value);
      else if (key == "chaos_corrupt") s.chaos_corrupt = std::stod(value);
      else if (key == "chaos_truncate") s.chaos_truncate = std::stod(value);
      else if (key == "chaos_disconnect") s.chaos_disconnect = std::stod(value);
      else if (key == "hostile") s.hostile = parse_hostile_kind(value);
      else if (key == "hostile_frac") s.hostile_frac = std::stod(value);
      else if (key == "hostile_at") s.hostile_at = std::stoul(value);
      else if (key == "hostile_span") s.hostile_span = std::stoul(value);
      else throw std::invalid_argument(unknown_key_message(key));
    } catch (const std::invalid_argument&) {
      throw;
    } catch (const std::exception&) {
      throw std::invalid_argument("bad value for spec key " + key + ": " +
                                  value);
    }
  }
  validate_spec(s);
  return s;
}

data::FederatedDataset build_dataset(const ScenarioSpec& spec) {
  data::SyntheticImageConfig cfg =
      data::SyntheticImageConfig::femnist_like(spec.classes);
  cfg.height = spec.image;
  cfg.width = spec.image;
  cfg.noise_stddev = 0.6;
  data::SyntheticImageGenerator gen(cfg);

  data::PartitionConfig pcfg;
  pcfg.num_clients = spec.clients;
  pcfg.min_samples = spec.min_samples;
  pcfg.max_samples = spec.max_samples;
  pcfg.test_samples = spec.test_samples;
  // Mild per-client style jitter so the P(X|y)/Q(X|y) summaries have real
  // feature heterogeneity to measure (matches the bench harness default).
  pcfg.style_brightness_stddev = 0.1;
  pcfg.style_contrast_stddev = 0.1;

  Rng rng(spec.seed ^ 0xda7a5e3dULL);
  switch (spec.partition) {
    case PartitionKind::Majority:
      return data::partition_majority_label(gen, pcfg, rng);
    case PartitionKind::Iid:
      return data::partition_iid(gen, pcfg, rng);
    case PartitionKind::KLabels:
      return data::partition_k_random_labels(gen, pcfg, spec.klabels, rng);
    case PartitionKind::Dirichlet:
      return data::partition_dirichlet(gen, pcfg, spec.alpha, rng);
    case PartitionKind::FeatureSkew:
      return data::partition_feature_skew(gen, pcfg, spec.rotation, rng);
  }
  throw std::invalid_argument("bad PartitionKind");
}

fl::EngineConfig build_engine_config(const ScenarioSpec& spec) {
  fl::EngineConfig cfg;
  cfg.rounds = spec.rounds;
  cfg.clients_per_round = spec.per_round;
  cfg.eval_every = 2;
  cfg.seed = spec.seed;
  cfg.local.sgd.learning_rate = 0.08;
  cfg.local.batch_size = 16;
  if (spec.fedprox) {
    cfg.algorithm = fl::LocalAlgorithm::FedProx;
    cfg.fedprox_mu = 0.01;
  }
  cfg.compression.kind = spec.compression;
  cfg.compression.topk_fraction = spec.topk_fraction;
  cfg.faults.crash_rate = spec.crash_rate;
  cfg.faults.corruption_rate = spec.corruption_rate;
  cfg.faults.straggler_rate = spec.straggler_rate;
  cfg.faults.seed = spec.seed + 13;
  if (spec.hostile == HostileKind::TargetedStragglers) {
    cfg.faults.targeted_fraction = spec.hostile_frac;
    cfg.faults.targeted_from = spec.hostile_at;
  }
  cfg.overcommit = spec.overcommit;
  cfg.deadline_quantile = spec.deadline_quantile;
  cfg.max_update_norm = spec.max_update_norm;
  return cfg;
}

core::HaccsConfig build_haccs_config(const ScenarioSpec& spec) {
  core::HaccsConfig cfg;
  cfg.summary = core::selector_info(spec.selector)
                    .haccs_summary.value_or(stats::SummaryKind::Response);
  cfg.response_distance = spec.distance;
  cfg.algorithm = spec.algorithm;
  cfg.extraction = spec.extraction;
  cfg.rho = spec.rho;
  if (spec.epsilon > 0.0) {
    cfg.privacy = stats::PrivacyConfig{spec.epsilon};
    cfg.privacy.mechanism = spec.mechanism;
  }
  return cfg;
}

std::unique_ptr<fl::ClientSelector> build_selector(
    const ScenarioSpec& spec, const data::FederatedDataset& dataset) {
  core::SelectorContext ctx;
  ctx.haccs = build_haccs_config(spec);
  ctx.rounds = spec.rounds;
  ctx.dataset = &dataset;
  return core::make_selector(spec.selector, ctx);
}

std::function<nn::Sequential()> build_model_factory(
    const ScenarioSpec& /*spec*/, const data::FederatedDataset& dataset) {
  return core::default_model_factory(dataset, 99);
}

net::ChaosOptions build_chaos_options(const ScenarioSpec& spec) {
  net::ChaosOptions chaos;
  chaos.seed = spec.seed ^ 0xc4a05eedULL;
  chaos.drop_rate = spec.chaos_drop;
  chaos.duplicate_rate = spec.chaos_dup;
  chaos.reorder_rate = spec.chaos_reorder;
  chaos.corrupt_rate = spec.chaos_corrupt;
  chaos.truncate_rate = spec.chaos_truncate;
  chaos.disconnect_rate = spec.chaos_disconnect;
  return chaos;
}

std::unique_ptr<sim::DropoutSchedule> build_availability(
    const ScenarioSpec& spec) {
  // The base per-epoch dropout uses seed + 101 — the derivation run_scenario
  // has always used, so benign replays stay bit-identical to older builds.
  std::unique_ptr<sim::DropoutSchedule> schedule =
      spec.dropout > 0.0
          ? sim::make_per_epoch_dropout(spec.clients, spec.dropout,
                                        spec.seed + 101)
          : sim::make_always_available(spec.clients);
  std::unique_ptr<sim::DropoutSchedule> hostile;
  switch (spec.hostile) {
    case HostileKind::FlashCrowd:
      hostile = sim::make_flash_crowd(spec.clients, spec.hostile_frac,
                                      spec.hostile_at, spec.seed + 211);
      break;
    case HostileKind::Diurnal:
      // Period = span + 1 keeps the trough strictly shorter than the period
      // for any frac < 1, so the wave never blacks out a whole cycle.
      hostile = sim::make_diurnal_wave(spec.clients, spec.hostile_frac,
                                       spec.hostile_span + 1, spec.seed + 211);
      break;
    case HostileKind::Outage:
      hostile = sim::make_regional_outage(spec.clients, /*num_regions=*/4,
                                          spec.hostile_frac, spec.hostile_at,
                                          spec.hostile_span, spec.seed + 211);
      break;
    case HostileKind::None:
    case HostileKind::Drift:
    case HostileKind::TargetedStragglers:
      break;  // not availability-shaped
  }
  if (hostile) {
    schedule = sim::make_intersection(std::move(schedule), std::move(hostile));
  }
  return schedule;
}

std::function<void(std::size_t)> build_drift_hook(const ScenarioSpec& spec,
                                                  data::FederatedDataset& fed) {
  if (spec.hostile != HostileKind::Drift) return {};
  // Rebuild the generator exactly as build_dataset configured it, so drifted
  // clients are redrawn from the same class prototypes they came from.
  data::SyntheticImageConfig cfg =
      data::SyntheticImageConfig::femnist_like(spec.classes);
  cfg.height = spec.image;
  cfg.width = spec.image;
  cfg.noise_stddev = 0.6;
  const std::size_t at = spec.hostile_at;
  const double frac = spec.hostile_frac;
  const std::uint64_t seed = spec.seed + 307;
  return [&fed, cfg, at, frac, seed](std::size_t epoch) {
    if (epoch != at) return;
    data::SyntheticImageGenerator gen(cfg);
    Rng rng(seed);
    data::apply_label_drift(fed, gen, frac, rng);
  };
}

}  // namespace haccs::testing
