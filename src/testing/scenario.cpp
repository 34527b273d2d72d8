#include "src/testing/scenario.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "src/common/flags.hpp"
#include "src/common/name_table.hpp"
#include "src/common/rng.hpp"
#include "src/core/haccs_system.hpp"
#include "src/core/selector_registry.hpp"

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

/// The generator every build of this scenario draws from.
data::SyntheticImageGenerator spec_generator(const ScenarioSpec& spec) {
  data::SyntheticImageConfig cfg =
      data::SyntheticImageConfig::femnist_like(spec.classes);
  cfg.height = spec.image;
  cfg.width = spec.image;
  cfg.noise_stddev = 0.6;
  return data::SyntheticImageGenerator(cfg);
}

const Named<core::ClusterAlgorithm> kAlgorithmNames[] = {
    {core::ClusterAlgorithm::Optics, "optics"},
    {core::ClusterAlgorithm::Dbscan, "dbscan"}};
const Named<core::Extraction> kExtractionNames[] = {
    {core::Extraction::Auto, "auto"},
    {core::Extraction::Xi, "xi"},
    {core::Extraction::Dbscan, "dbscan"}};
const Named<fl::CompressionKind> kCompressionNames[] = {
    {fl::CompressionKind::None, "none"},
    {fl::CompressionKind::TopK, "topk"},
    {fl::CompressionKind::Int8, "int8"}};

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
  std::string best_key;
  // The known keys are the ones to_spec_string prints, in its order.
  std::istringstream printed(to_spec_string(ScenarioSpec{}));
  for (std::string item; std::getline(printed, item, ',');) {
    const std::string candidate = item.substr(0, item.find('='));
    const std::size_t d = edit_distance(key, candidate);
    if (d < best) {
      best = d;
      best_key = candidate;
    }
  }
  // Only suggest when the typo is plausibly a typo of that key: within 3
  // edits or so — "chaos_dorp" suggests chaos_drop, "zzz" suggests nothing.
  if (best <= std::max<std::size_t>(2, key.size() / 3)) {
    message += " (did you mean '" + best_key + "'?)";
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

  s.partition = pick(rng, {data::PartitionKind::Majority,
                           data::PartitionKind::Iid,
                           data::PartitionKind::KLabels,
                           data::PartitionKind::Dirichlet,
                           data::PartitionKind::FeatureSkew});
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
    s.hostile = pick(rng, {sim::HostileKind::FlashCrowd,
                           sim::HostileKind::Diurnal, sim::HostileKind::Outage,
                           sim::HostileKind::Drift,
                           sim::HostileKind::TargetedStragglers});
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
  // The checks haccs_run runs on the same workload knobs.
  try {
    core::selector_info(s.selector);
    data::check_partition(s.partition, s.clients, s.classes, s.klabels,
                          s.alpha);
    sim::check_availability(s.dropout, s.hostile_frac, s.hostile_span);
    stats::privacy_for_budget(s.epsilon, s.mechanism);
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  }
  if (s.rho < 0.0 || s.rho > 1.0) fail("rho outside [0, 1]");
  if (s.topk_fraction <= 0.0 || s.topk_fraction > 1.0) fail("topk_fraction");
  for (double rate : {s.crash_rate, s.corruption_rate, s.straggler_rate}) {
    if (rate < 0.0 || rate > 1.0) fail("fault rate outside [0, 1]");
  }
  if (s.overcommit < 0.0) fail("overcommit < 0");
  if (s.deadline_quantile < 0.0 || s.deadline_quantile > 1.0) {
    fail("deadline_quantile outside [0, 1]");
  }
  if (s.max_update_norm < 0.0) fail("max_update_norm < 0");
  if (s.workers == 0 || s.workers > 8) fail("workers out of range");
  // Fuzz-only bounds: the knobs of the partitions a spec does not draw stay
  // valid too, and the hostile epochs stay small.
  if (s.klabels == 0 || s.klabels > s.classes) fail("klabels out of range");
  if (s.alpha <= 0.0) fail("alpha <= 0");
  for (double rate : {s.chaos_drop, s.chaos_dup, s.chaos_reorder,
                      s.chaos_corrupt, s.chaos_truncate, s.chaos_disconnect}) {
    if (rate < 0.0 || rate > 1.0) fail("chaos rate outside [0, 1]");
  }
  if (s.hostile_at > 64) fail("hostile_at out of range");
  if (s.hostile_span > 64) fail("hostile_span out of range");
}

std::string to_spec_string(const ScenarioSpec& s) {
  std::ostringstream os;
  os << "seed=" << s.seed << ",clients=" << s.clients
     << ",per_round=" << s.per_round << ",rounds=" << s.rounds
     << ",classes=" << s.classes << ",image=" << s.image
     << ",min_samples=" << s.min_samples << ",max_samples=" << s.max_samples
     << ",test_samples=" << s.test_samples
     << ",partition=" << data::to_string(s.partition)
     << ",klabels=" << s.klabels
     << ",alpha=" << format_double(s.alpha)
     << ",rotation=" << format_double(s.rotation)
     << ",selector=" << s.selector
     << ",algorithm=" << name_of(kAlgorithmNames, s.algorithm)
     << ",extraction=" << name_of(kExtractionNames, s.extraction)
     << ",distance=" << stats::to_string(s.distance)
     << ",rho=" << format_double(s.rho)
     << ",epsilon=" << format_double(s.epsilon)
     << ",mechanism=" << stats::to_string(s.mechanism)
     << ",compression=" << name_of(kCompressionNames, s.compression)
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
     << ",hostile=" << sim::to_string(s.hostile)
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
    // Values parse whole and finite, through the flag parsers.
    const std::string what = "spec key " + key;
    auto count = [&] { return parse_count(what, value); };
    auto real = [&] { return parse_double(what, value); };
    auto named = [&](const auto& table) {
      return parse_name(table, value, key.c_str());
    };
    if (key == "seed") s.seed = count();
    else if (key == "clients") s.clients = count();
    else if (key == "per_round") s.per_round = count();
    else if (key == "rounds") s.rounds = count();
    else if (key == "classes") s.classes = count();
    else if (key == "image") s.image = count();
    else if (key == "min_samples") s.min_samples = count();
    else if (key == "max_samples") s.max_samples = count();
    else if (key == "test_samples") s.test_samples = count();
    else if (key == "partition") s.partition = data::parse_partition_kind(value);
    else if (key == "klabels") s.klabels = count();
    else if (key == "alpha") s.alpha = real();
    else if (key == "rotation") s.rotation = real();
    else if (key == "selector") s.selector = value;
    else if (key == "algorithm") s.algorithm = named(kAlgorithmNames);
    else if (key == "extraction") s.extraction = named(kExtractionNames);
    else if (key == "distance") s.distance = stats::parse_distance_kind(value);
    else if (key == "rho") s.rho = real();
    else if (key == "epsilon") s.epsilon = real();
    else if (key == "mechanism") s.mechanism = stats::parse_noise_mechanism(value);
    else if (key == "compression") s.compression = named(kCompressionNames);
    else if (key == "topk_fraction") s.topk_fraction = real();
    else if (key == "crash") s.crash_rate = real();
    else if (key == "corruption") s.corruption_rate = real();
    else if (key == "straggler") s.straggler_rate = real();
    else if (key == "overcommit") s.overcommit = real();
    else if (key == "deadline") s.deadline_quantile = real();
    else if (key == "max_norm") s.max_update_norm = real();
    else if (key == "dropout") s.dropout = real();
    else if (key == "fedprox") s.fedprox = parse_bool(what, value);
    else if (key == "workers") s.workers = count();
    else if (key == "chaos_drop") s.chaos_drop = real();
    else if (key == "chaos_dup") s.chaos_dup = real();
    else if (key == "chaos_reorder") s.chaos_reorder = real();
    else if (key == "chaos_corrupt") s.chaos_corrupt = real();
    else if (key == "chaos_truncate") s.chaos_truncate = real();
    else if (key == "chaos_disconnect") s.chaos_disconnect = real();
    else if (key == "hostile") s.hostile = sim::parse_hostile_kind(value);
    else if (key == "hostile_frac") s.hostile_frac = real();
    else if (key == "hostile_at") s.hostile_at = count();
    else if (key == "hostile_span") s.hostile_span = count();
    else throw std::invalid_argument(unknown_key_message(key));
  }
  validate_spec(s);
  return s;
}

data::FederatedDataset build_dataset(const ScenarioSpec& spec) {
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
  return data::make_federation(spec_generator(spec), pcfg, spec.partition,
                               spec.klabels, spec.alpha, spec.rotation, rng);
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
  sim::apply_targeted_stragglers(cfg.faults, spec.hostile, spec.hostile_frac,
                                 spec.hostile_at);
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
  cfg.privacy = stats::privacy_for_budget(spec.epsilon, spec.mechanism);
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
  return sim::make_availability(spec.clients, spec.dropout, spec.hostile,
                                spec.hostile_frac, spec.hostile_at,
                                spec.hostile_span, spec.seed);
}

std::function<void(std::size_t)> build_drift_hook(const ScenarioSpec& spec,
                                                  data::FederatedDataset& fed) {
  return sim::make_drift_hook(spec.hostile, fed, spec_generator(spec),
                              spec.hostile_frac, spec.hostile_at, spec.seed);
}

}  // namespace haccs::testing
