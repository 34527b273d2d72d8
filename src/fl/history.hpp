// Training history and the time-to-accuracy (TTA) metric.
//
// Every evaluation point records the simulated clock, the round index, and
// global accuracy/loss (the average over all clients' local test sets, per
// the paper's problem statement: convergence "with respect to all devices in
// the system"). TTA is the paper's headline metric (§V): the first simulated
// time at which global accuracy reaches a target.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace haccs::fl {

/// Wall-clock phase breakdown of one round, milliseconds, and its page
/// faults. All zeros unless telemetry is enabled (obs::timing_enabled()) —
/// the engines skip the clock reads entirely on untraced runs.
struct PhaseTimings {
  double selection_ms = 0.0;  ///< selector.select + invariant checks
  double dispatch_ms = 0.0;   ///< fault trace + deadline computation
  double train_ms = 0.0;      ///< local training, wall (all clients)
  double aggregate_ms = 0.0;  ///< validation + FedAvg accumulation
  double evaluate_ms = 0.0;   ///< global evaluation (0 on non-eval rounds)
  /// Minor page faults the whole process took during the round (getrusage
  /// delta, every thread): how often round buffers were freshly mapped.
  std::uint64_t minor_faults = 0;
};

struct RoundRecord {
  std::size_t epoch = 0;
  double sim_time_s = 0.0;       ///< simulated clock after this round
  double round_duration_s = 0.0; ///< straggler latency of this round
  double global_accuracy = 0.0;  ///< mean accuracy over all client test sets
  double global_loss = 0.0;
  std::vector<std::size_t> selected{};  ///< clients whose updates aggregated

  // Fault-layer accounting (all empty/zero on clean runs; `selected` keeps
  // its pre-fault meaning so bias metrics stay comparable).
  std::size_t dispatched = 0;    ///< clients sent the model this round
  double deadline_s = 0.0;       ///< round deadline (0 = none)
  std::vector<std::size_t> crashed{};   ///< died mid-round
  std::vector<std::size_t> late{};      ///< missed the deadline
  std::vector<std::size_t> rejected{};  ///< update failed validation

  // Communication accounting, in real wire bytes (full frames as the net
  // codecs emit them — see fl/protocol.hpp pricing). Identical between an
  // in-process round and the same round over a transport.
  std::size_t downlink_bytes = 0;  ///< server -> clients (TrainJob frames)
  std::size_t uplink_bytes = 0;    ///< clients -> server (ClientUpdate frames)

  /// Wall-clock phase breakdown (observability; zeros on untraced runs).
  PhaseTimings phase{};

  /// Client-rounds of wasted work this round (dispatched but not aggregated).
  std::size_t wasted() const {
    return crashed.size() + late.size() + rejected.size();
  }
};

/// Serializes one round as a structured run event (a single JSON object):
/// the full RoundRecord plus per-phase wall timings, tagged with the engine
/// that produced it ("sync" / "async"). This is the JSONL schema documented
/// in DESIGN.md §5e.
std::string round_event_json(const char* engine, const RoundRecord& record);

class TrainingHistory {
 public:
  void add(RoundRecord record);

  const std::vector<RoundRecord>& records() const { return records_; }
  bool empty() const { return records_.empty(); }

  /// First simulated time at which accuracy >= target; +inf if never.
  double time_to_accuracy(double target) const;

  /// First epoch at which accuracy >= target; SIZE_MAX if never.
  std::size_t epochs_to_accuracy(double target) const;

  /// Highest accuracy observed.
  double best_accuracy() const;

  /// Final (last-recorded) accuracy.
  double final_accuracy() const;

  /// Total simulated training time.
  double total_time() const;

  /// How many times each client id in [0, num_clients) was selected.
  std::vector<std::size_t> selection_counts(std::size_t num_clients) const;

  /// Total client-rounds dispatched across the run.
  std::size_t total_dispatched() const;

  /// Total wasted client-rounds (crashed + late + rejected).
  std::size_t total_wasted() const;

  /// Total downlink wire bytes (TrainJob frames) across the run.
  std::size_t total_downlink_bytes() const;

  /// Total uplink wire bytes (ClientUpdate frames) across the run.
  std::size_t total_uplink_bytes() const;

 private:
  std::vector<RoundRecord> records_;
};

inline constexpr double kNeverReached = std::numeric_limits<double>::infinity();

/// Formats a TTA value for tables ("inf" when the target was never reached).
std::string format_tta(double tta_seconds);

}  // namespace haccs::fl
