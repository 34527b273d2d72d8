// Mid-round fault injection (robustness extension, DESIGN.md "Fault model").
//
// DropoutSchedule decides who is reachable *before* selection; real
// deployments also lose clients *after* dispatch. FaultModel injects three
// post-dispatch failure modes, each a pure function of (seed, client, epoch):
//
//   * Crash      — the client dies after `crash_frac * latency` elapsed; its
//                  update never arrives and its compute is wasted;
//   * Corruption — the update arrives but is garbage (NaN/Inf entries or a
//                  norm-exploded delta) and must be rejected server-side;
//   * Straggler  — a heavy-tail (Pareto) latency multiplier on top of the
//                  engine's log-normal jitter, modeling transient overload.
//
// Because events depend only on (seed, client, epoch) — never on draw order
// — every selection strategy observes the identical fault trace, matching
// the paper's same-dropout-for-all-strategies methodology (§V-C).
#pragma once

#include <cstdint>
#include <span>

#include "src/common/rng.hpp"

namespace haccs::sim {

enum class FaultKind { None, Crash, Corruption, Straggler };

/// Pareto tail index of a straggler's excursion multiplier (smaller =
/// heavier tail).
inline constexpr double kStragglerAlpha = 1.5;
/// Pareto scale: the minimum excursion multiplier.
inline constexpr double kStragglerScale = 2.0;

/// How a corrupted update is mangled. The mode is part of the seeded fault
/// trace so validation tests see all three shapes deterministically.
enum class CorruptionMode {
  MakeNaN,       ///< sprinkle quiet NaNs through the delta
  MakeInf,       ///< sprinkle +/-inf through the delta
  ScaleExplode,  ///< multiply the delta by `corruption_scale` (finite garbage)
};

struct FaultModelConfig {
  /// Per-(client, epoch) probability of a mid-round crash.
  double crash_rate = 0.0;
  /// Crash instant as a fraction of the client's effective latency, drawn
  /// uniformly from [crash_frac_min, crash_frac_max].
  double crash_frac_min = 0.05;
  double crash_frac_max = 0.95;
  /// Fraction of clients that are persistently "flaky": their crash rate is
  /// `crash_rate * flaky_crash_boost` (clamped so all rates still sum to 1).
  /// Which clients are flaky is a pure function of (seed, client) — the same
  /// devices are volatile under every strategy. 0 disables (uniform crashes).
  double flaky_fraction = 0.0;
  double flaky_crash_boost = 4.0;

  /// Per-(client, epoch) probability of returning a corrupted update.
  double corruption_rate = 0.0;
  /// Multiplier used by CorruptionMode::ScaleExplode.
  double corruption_scale = 1.0e4;

  /// Per-(client, epoch) probability of a heavy-tail latency excursion,
  /// a Pareto(kStragglerScale, kStragglerAlpha) multiplier.
  double straggler_rate = 0.0;
  /// Hard cap on the multiplier (keeps simulated clocks finite).
  double straggler_cap = 64.0;

  /// Adversarial (targeted) stragglers: a fixed, seeded cohort of
  /// `targeted_fraction * n` clients is slowed by `targeted_multiplier` on
  /// EVERY dispatch from epoch `targeted_from` onward — not the Pareto
  /// random excursion above but a persistent adversary (e.g. colluding
  /// devices throttling uploads). Which clients are targeted is a pure
  /// function of (seed, client), so every strategy faces the same cohort.
  double targeted_fraction = 0.0;
  double targeted_multiplier = 8.0;
  std::size_t targeted_from = 0;

  std::uint64_t seed = 1;

  bool enabled() const {
    return crash_rate > 0.0 || corruption_rate > 0.0 || straggler_rate > 0.0 ||
           targeted_fraction > 0.0;
  }
};

/// The fault assigned to one (client, epoch) dispatch. Fields other than
/// `kind` are meaningful only for the matching kind.
struct FaultEvent {
  FaultKind kind = FaultKind::None;
  double crash_frac = 1.0;          ///< Crash: fraction of latency survived
  double latency_multiplier = 1.0;  ///< Straggler: >= kStragglerScale
  CorruptionMode corruption = CorruptionMode::MakeNaN;
};

class FaultModel {
 public:
  explicit FaultModel(FaultModelConfig config);

  const FaultModelConfig& config() const { return config_; }
  bool enabled() const { return config_.enabled(); }

  /// The fault (if any) for this dispatch. Pure in (config.seed, client,
  /// epoch): order-independent and identical across strategies.
  FaultEvent at(std::size_t client, std::size_t epoch) const;

  /// Whether this client is persistently flaky (boosted crash rate). Pure in
  /// (config.seed, client); always false when flaky_fraction == 0.
  bool flaky(std::size_t client) const;

  /// Whether this client belongs to the adversarial straggler cohort. Pure
  /// in (config.seed, client); always false when targeted_fraction == 0.
  bool targeted(std::size_t client) const;

  /// Applies `event`'s corruption mode to a delta in place (no-op unless
  /// kind == Corruption). Deterministic — no RNG involved.
  void corrupt(const FaultEvent& event, std::span<float> delta) const;

 private:
  FaultModelConfig config_;
};

/// Per-client circuit breaker with exponential cooldown.
///
/// Closed: dispatch allowed. After `failure_threshold` consecutive failures
/// the breaker opens for `base_cooldown * 2^(trips-1)` epochs (capped at
/// `max_cooldown`); while open the client must not be dispatched. When the
/// cooldown elapses the breaker is half-open: one probe dispatch is allowed —
/// success closes it, another failure re-opens it with a doubled cooldown.
class CircuitBreaker {
 public:
  struct Config {
    std::size_t failure_threshold = 3;
    std::size_t base_cooldown = 4;   ///< epochs, first trip
    std::size_t max_cooldown = 256;  ///< cooldown growth cap
  };

  enum class State { Closed, Open, HalfOpen };

  /// Checkpointable mutable state (fl/checkpoint.hpp): everything the
  /// breaker accumulates across epochs, so a resumed server quarantines the
  /// same clients an uninterrupted run would.
  struct Snapshot {
    std::size_t consecutive_failures = 0;
    std::size_t trips = 0;
    std::size_t open_until = 0;
    bool tripped = false;
  };

  explicit CircuitBreaker(Config config);

  State state(std::size_t epoch) const;
  /// True when the client may be dispatched at `epoch` (Closed or HalfOpen).
  bool allows(std::size_t epoch) const { return state(epoch) != State::Open; }

  void record_failure(std::size_t epoch);
  void record_success();

  std::size_t consecutive_failures() const { return consecutive_failures_; }
  std::size_t trips() const { return trips_; }
  /// First epoch at which a tripped breaker becomes half-open.
  std::size_t open_until() const { return open_until_; }

  Snapshot snapshot() const {
    return Snapshot{consecutive_failures_, trips_, open_until_, tripped_};
  }
  void restore(const Snapshot& snap) {
    consecutive_failures_ = snap.consecutive_failures;
    trips_ = snap.trips;
    open_until_ = snap.open_until;
    tripped_ = snap.tripped;
  }

 private:
  Config config_;
  std::size_t consecutive_failures_ = 0;
  std::size_t trips_ = 0;
  std::size_t open_until_ = 0;
  bool tripped_ = false;  ///< open/half-open until the next success
};

}  // namespace haccs::sim
