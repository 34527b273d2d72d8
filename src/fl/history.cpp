#include "src/fl/history.hpp"

#include <algorithm>
#include <sstream>

#include "src/common/error.hpp"
#include "src/obs/obs.hpp"

namespace haccs::fl {

void TrainingHistory::add(RoundRecord record) {
  if (!records_.empty()) {
    HACCS_CHECK_MSG(record.sim_time_s >= records_.back().sim_time_s,
                    "history: simulated time must be monotone");
  }
  records_.push_back(std::move(record));
}

double TrainingHistory::time_to_accuracy(double target) const {
  for (const auto& r : records_) {
    if (r.global_accuracy >= target) return r.sim_time_s;
  }
  return kNeverReached;
}

std::size_t TrainingHistory::epochs_to_accuracy(double target) const {
  for (const auto& r : records_) {
    if (r.global_accuracy >= target) return r.epoch;
  }
  return static_cast<std::size_t>(-1);
}

double TrainingHistory::best_accuracy() const {
  double best = 0.0;
  for (const auto& r : records_) best = std::max(best, r.global_accuracy);
  return best;
}

double TrainingHistory::final_accuracy() const {
  return records_.empty() ? 0.0 : records_.back().global_accuracy;
}

double TrainingHistory::total_time() const {
  return records_.empty() ? 0.0 : records_.back().sim_time_s;
}

std::vector<std::size_t> TrainingHistory::selection_counts(
    std::size_t num_clients) const {
  std::vector<std::size_t> counts(num_clients, 0);
  for (const auto& r : records_) {
    for (std::size_t id : r.selected) {
      if (id < num_clients) ++counts[id];
    }
  }
  return counts;
}

std::size_t TrainingHistory::total_dispatched() const {
  std::size_t total = 0;
  for (const auto& r : records_) total += r.dispatched;
  return total;
}

std::size_t TrainingHistory::total_wasted() const {
  std::size_t total = 0;
  for (const auto& r : records_) total += r.wasted();
  return total;
}

std::size_t TrainingHistory::total_downlink_bytes() const {
  std::size_t total = 0;
  for (const auto& r : records_) total += r.downlink_bytes;
  return total;
}

std::size_t TrainingHistory::total_uplink_bytes() const {
  std::size_t total = 0;
  for (const auto& r : records_) total += r.uplink_bytes;
  return total;
}

std::string round_event_json(const char* engine, const RoundRecord& r) {
  obs::JsonObject phases;
  phases.field("selection_ms", r.phase.selection_ms)
      .field("dispatch_ms", r.phase.dispatch_ms)
      .field("train_ms", r.phase.train_ms)
      .field("aggregate_ms", r.phase.aggregate_ms)
      .field("evaluate_ms", r.phase.evaluate_ms);
  obs::JsonObject event;
  event.field("type", "round")
      .field("engine", engine)
      .field("epoch", r.epoch)
      .field("sim_time_s", r.sim_time_s)
      .field("round_duration_s", r.round_duration_s)
      .field("deadline_s", r.deadline_s)
      .field("accuracy", r.global_accuracy)
      .field("loss", r.global_loss)
      .field("dispatched", r.dispatched)
      .field("aggregated", r.selected.size())
      .field("wasted", r.wasted())
      .field("downlink_bytes", r.downlink_bytes)
      .field("uplink_bytes", r.uplink_bytes)
      .field_raw("selected", obs::json_array(r.selected))
      .field_raw("crashed", obs::json_array(r.crashed))
      .field_raw("late", obs::json_array(r.late))
      .field_raw("rejected", obs::json_array(r.rejected))
      .field_raw("phase_wall_ms", phases.str())
      .field("minor_faults", r.phase.minor_faults);
  return event.str();
}

std::string format_tta(double tta_seconds) {
  if (tta_seconds == kNeverReached) return "never";
  std::ostringstream os;
  os.precision(1);
  os << std::fixed << tta_seconds;
  return os.str();
}

}  // namespace haccs::fl
