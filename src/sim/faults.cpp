#include "src/sim/faults.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/obs/metrics.hpp"

namespace haccs::sim {

namespace {

// Cached references: registry lookups take a lock, so resolve each counter
// once and reuse the (never-invalidated) reference on every injection.
struct FaultMetrics {
  obs::Counter& crash;
  obs::Counter& corruption;
  obs::Counter& straggler;
  static FaultMetrics& get() {
    static FaultMetrics m{
        obs::Registry::global().counter("faults_crash_total"),
        obs::Registry::global().counter("faults_corruption_total"),
        obs::Registry::global().counter("faults_straggler_total"),
    };
    return m;
  }
};

}  // namespace

FaultModel::FaultModel(FaultModelConfig config) : config_(config) {
  auto check_rate = [](double r, const char* name) {
    if (r < 0.0 || r > 1.0) {
      throw std::invalid_argument(std::string("FaultModel: ") + name +
                                  " must be in [0, 1]");
    }
  };
  check_rate(config_.crash_rate, "crash_rate");
  check_rate(config_.corruption_rate, "corruption_rate");
  check_rate(config_.straggler_rate, "straggler_rate");
  if (config_.crash_rate + config_.corruption_rate + config_.straggler_rate >
      1.0) {
    throw std::invalid_argument("FaultModel: fault rates sum to > 1");
  }
  if (config_.crash_frac_min < 0.0 ||
      config_.crash_frac_max > 1.0 ||
      config_.crash_frac_min > config_.crash_frac_max) {
    throw std::invalid_argument("FaultModel: bad crash_frac range");
  }
  if (config_.straggler_cap < kStragglerScale) {
    throw std::invalid_argument(
        "FaultModel: straggler_cap must be >= kStragglerScale");
  }
  check_rate(config_.flaky_fraction, "flaky_fraction");
  if (config_.flaky_crash_boost < 1.0) {
    throw std::invalid_argument("FaultModel: flaky_crash_boost must be >= 1");
  }
  check_rate(config_.targeted_fraction, "targeted_fraction");
  if (config_.targeted_multiplier < 1.0 ||
      config_.targeted_multiplier > config_.straggler_cap) {
    throw std::invalid_argument(
        "FaultModel: targeted_multiplier must be in [1, straggler_cap]");
  }
}

bool FaultModel::flaky(std::size_t client) const {
  if (config_.flaky_fraction <= 0.0) return false;
  // Pure in (seed, client): flakiness is a device property, stable across
  // epochs and identical for every strategy.
  Rng rng(config_.seed ^ (0xd1b54a32d192ed03ULL * (client + 1)));
  return rng.uniform() < config_.flaky_fraction;
}

bool FaultModel::targeted(std::size_t client) const {
  if (config_.targeted_fraction <= 0.0) return false;
  // Same (seed, client) purity as flaky(), on an independent stream: the
  // adversarial cohort is fixed for the whole run and identical under every
  // selection strategy.
  Rng rng(config_.seed ^ (0xeb44accab455d165ULL * (client + 1)));
  return rng.uniform() < config_.targeted_fraction;
}

FaultEvent FaultModel::at(std::size_t client, std::size_t epoch) const {
  FaultEvent event;
  if (!config_.enabled()) return event;
  // One fresh generator per (seed, epoch, client), same derivation idiom as
  // the engine's latency jitter: purity in the triple is what guarantees
  // identical traces across strategies regardless of who got selected.
  Rng rng(config_.seed ^ (0xa24baed4963ee407ULL * (epoch + 1)) ^
          (0x9fb21c651e98df25ULL * (client + 1)));
  const double u = rng.uniform();
  double crash_rate = config_.crash_rate;
  if (config_.flaky_fraction > 0.0 && flaky(client)) {
    crash_rate = std::min(
        crash_rate * config_.flaky_crash_boost,
        1.0 - config_.corruption_rate - config_.straggler_rate);
  }
  if (u < crash_rate) {
    event.kind = FaultKind::Crash;
    event.crash_frac =
        rng.uniform(config_.crash_frac_min, config_.crash_frac_max);
    FaultMetrics::get().crash.inc();
  } else if (u < crash_rate + config_.corruption_rate) {
    event.kind = FaultKind::Corruption;
    event.corruption = static_cast<CorruptionMode>(rng.uniform_index(3));
    FaultMetrics::get().corruption.inc();
  } else if (u < crash_rate + config_.corruption_rate +
                     config_.straggler_rate) {
    event.kind = FaultKind::Straggler;
    // Pareto(x_m = scale, alpha) via inverse CDF; clamp the tail.
    const double tail =
        kStragglerScale *
        std::pow(1.0 - rng.uniform(), -1.0 / kStragglerAlpha);
    event.latency_multiplier = std::min(tail, config_.straggler_cap);
    FaultMetrics::get().straggler.inc();
  }
  // Adversarial straggling stacks on top of the random draw: a targeted
  // client is slowed on every dispatch once the adversary activates, unless
  // it crashed/corrupted anyway (a dead client cannot be slow). The random
  // stream above is consumed identically either way, so enabling targeting
  // never perturbs the non-targeted clients' fault trace.
  if (event.kind != FaultKind::Crash && event.kind != FaultKind::Corruption &&
      epoch >= config_.targeted_from && targeted(client)) {
    if (event.kind != FaultKind::Straggler) {
      event.kind = FaultKind::Straggler;
      FaultMetrics::get().straggler.inc();
    }
    event.latency_multiplier =
        std::max(event.latency_multiplier, config_.targeted_multiplier);
  }
  return event;
}

void FaultModel::corrupt(const FaultEvent& event,
                         std::span<float> delta) const {
  if (event.kind != FaultKind::Corruption || delta.empty()) return;
  switch (event.corruption) {
    case CorruptionMode::MakeNaN:
      for (std::size_t i = 0; i < delta.size(); i += 97) {
        delta[i] = std::numeric_limits<float>::quiet_NaN();
      }
      break;
    case CorruptionMode::MakeInf:
      for (std::size_t i = 0; i < delta.size(); i += 97) {
        delta[i] = (i % 2 == 0) ? std::numeric_limits<float>::infinity()
                                : -std::numeric_limits<float>::infinity();
      }
      break;
    case CorruptionMode::ScaleExplode: {
      const auto scale = static_cast<float>(config_.corruption_scale);
      for (float& v : delta) v *= scale;
      break;
    }
  }
}

CircuitBreaker::CircuitBreaker(Config config) : config_(config) {
  if (config_.failure_threshold == 0) {
    throw std::invalid_argument("CircuitBreaker: failure_threshold must be > 0");
  }
  if (config_.base_cooldown == 0 ||
      config_.max_cooldown < config_.base_cooldown) {
    throw std::invalid_argument("CircuitBreaker: bad cooldown range");
  }
}

CircuitBreaker::State CircuitBreaker::state(std::size_t epoch) const {
  if (!tripped_) return State::Closed;
  return epoch < open_until_ ? State::Open : State::HalfOpen;
}

void CircuitBreaker::record_failure(std::size_t epoch) {
  ++consecutive_failures_;
  // A failed half-open probe re-trips immediately; a closed breaker trips
  // once the consecutive-failure threshold is reached.
  const bool trip = tripped_ || consecutive_failures_ >= config_.failure_threshold;
  if (!trip) return;
  ++trips_;
  const std::size_t doublings = std::min<std::size_t>(trips_ - 1, 62);
  const std::size_t cooldown =
      std::min(config_.max_cooldown, config_.base_cooldown << doublings);
  open_until_ = epoch + 1 + cooldown;
  tripped_ = true;
  consecutive_failures_ = 0;
}

void CircuitBreaker::record_success() {
  consecutive_failures_ = 0;
  tripped_ = false;
  // trips_ is kept: a client that keeps flapping pays exponentially longer
  // quarantines on each successive trip.
}

}  // namespace haccs::sim
