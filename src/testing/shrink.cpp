#include "src/testing/shrink.hpp"

#include <functional>
#include <vector>

namespace haccs::testing {

namespace {

/// One candidate simplification. Returns true when it changed the spec
/// (an unchanged spec is skipped — no oracle run wasted).
using Pass = std::function<bool(ScenarioSpec&)>;

std::vector<Pass> simplification_passes() {
  std::vector<Pass> passes;
  auto add = [&](Pass p) { passes.push_back(std::move(p)); };

  // Ordered roughly by how much noise each knob removes from a reproducer:
  // chaos and fault machinery first, then the heavyweight subsystems, then
  // workload size, then algorithm knobs back to their defaults.
  add([](ScenarioSpec& s) {
    const bool changed = s.chaos_enabled();
    s.chaos_drop = s.chaos_dup = s.chaos_reorder = 0.0;
    s.chaos_corrupt = s.chaos_truncate = s.chaos_disconnect = 0.0;
    return changed;
  });
  add([](ScenarioSpec& s) {
    // Drop the hostile-world shape entirely, resetting its knobs to the
    // defaults so the shrunk spec round-trips through the printer cleanly.
    const bool changed = s.hostile != sim::HostileKind::None;
    s.hostile = sim::HostileKind::None;
    s.hostile_frac = 0.3;
    s.hostile_at = 1;
    s.hostile_span = 2;
    return changed;
  });
  add([](ScenarioSpec& s) {
    const bool changed = s.crash_rate != 0.0 || s.corruption_rate != 0.0 ||
                         s.straggler_rate != 0.0;
    s.crash_rate = s.corruption_rate = s.straggler_rate = 0.0;
    return changed;
  });
  add([](ScenarioSpec& s) {
    const bool changed = s.dropout != 0.0;
    s.dropout = 0.0;
    return changed;
  });
  add([](ScenarioSpec& s) {
    const bool changed = s.overcommit != 0.0 || s.deadline_quantile != 0.0 ||
                         s.max_update_norm != 0.0;
    s.overcommit = s.deadline_quantile = s.max_update_norm = 0.0;
    return changed;
  });
  add([](ScenarioSpec& s) {
    const bool changed = s.compression != fl::CompressionKind::None;
    s.compression = fl::CompressionKind::None;
    return changed;
  });
  add([](ScenarioSpec& s) {
    const bool changed = s.epsilon != 0.0;
    s.epsilon = 0.0;
    return changed;
  });
  add([](ScenarioSpec& s) {
    const bool changed = s.fedprox;
    s.fedprox = false;
    return changed;
  });
  add([](ScenarioSpec& s) {
    const bool changed = s.workers != 1;
    s.workers = 1;
    return changed;
  });
  add([](ScenarioSpec& s) {
    const bool changed = s.partition != data::PartitionKind::Majority;
    s.partition = data::PartitionKind::Majority;
    return changed;
  });
  add([](ScenarioSpec& s) {
    if (s.rounds <= 1) return false;
    s.rounds = (s.rounds + 1) / 2;
    return true;
  });
  add([](ScenarioSpec& s) {
    // Halve the population, keeping per_round feasible.
    if (s.clients <= 4) return false;
    s.clients = (s.clients + 1) / 2;
    if (s.per_round > s.clients) s.per_round = s.clients;
    return true;
  });
  add([](ScenarioSpec& s) {
    if (s.per_round <= 2) return false;
    s.per_round -= 1;
    return true;
  });
  add([](ScenarioSpec& s) {
    if (s.classes <= 4) return false;
    s.classes = 4;
    if (s.klabels > s.classes) s.klabels = s.classes;
    return true;
  });
  add([](ScenarioSpec& s) {
    if (s.image <= 8) return false;
    s.image = 8;
    return true;
  });
  add([](ScenarioSpec& s) {
    if (s.min_samples <= 16 && s.max_samples <= 24) return false;
    s.min_samples = 16;
    s.max_samples = 24;
    return true;
  });
  add([](ScenarioSpec& s) {
    if (s.test_samples <= 6) return false;
    s.test_samples = 6;
    return true;
  });
  add([](ScenarioSpec& s) {
    const bool changed = s.distance != stats::DistanceKind::Hellinger;
    s.distance = stats::DistanceKind::Hellinger;
    return changed;
  });
  add([](ScenarioSpec& s) {
    const bool changed = s.algorithm != core::ClusterAlgorithm::Optics ||
                         s.extraction != core::Extraction::Auto;
    s.algorithm = core::ClusterAlgorithm::Optics;
    s.extraction = core::Extraction::Auto;
    return changed;
  });
  add([](ScenarioSpec& s) {
    const bool changed = s.rho != 0.5;
    s.rho = 0.5;
    return changed;
  });
  return passes;
}

}  // namespace

ShrinkResult shrink_scenario(const ScenarioSpec& spec,
                             const std::string& oracle,
                             const OracleOptions& options) {
  ShrinkResult result;
  result.spec = spec;
  const auto passes = simplification_passes();

  bool improved = true;
  while (improved) {
    improved = false;
    for (const auto& pass : passes) {
      ScenarioSpec candidate = result.spec;
      if (!pass(candidate)) continue;
      try {
        validate_spec(candidate);
      } catch (const std::exception&) {
        continue;  // pass produced an out-of-bounds spec; skip it
      }
      ++result.attempts;
      const auto violations = check_scenario(candidate, options);
      if (has_oracle(violations, oracle)) {
        ++result.reproductions;
        result.spec = candidate;
        improved = true;
      }
    }
  }
  return result;
}

}  // namespace haccs::testing
