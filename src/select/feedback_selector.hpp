// The client-feedback ledger the loss-guided zoo selectors share (Oort, DPP,
// FedLECC, HiCS).
//
// Each of them weighs a client by the last loss it reported and by a
// reliability multiplier in [kMinReliability, 1]: every reported failure
// multiplies it by kFailureFactor, every delivered result recovers half the
// gap to 1 (so 1.0 stays exactly 1.0 and fault-free runs are unchanged).
// This base class owns those two per-client vectors, the rule, the check
// that the runtime view matches the population, and the crash-resume blob:
// name() as tag, version 1, the losses, the reliabilities.
#pragma once

#include <vector>

#include "src/fl/selector.hpp"

namespace haccs::net {
class WireReader;
class WireWriter;
}  // namespace haccs::net

namespace haccs::select {

/// Reliability multiplier applied per reported failure.
inline constexpr double kFailureFactor = 0.5;
/// Reliability floor, so a flaky client keeps a nonzero weight.
inline constexpr double kMinReliability = 1.0 / 64.0;

class FeedbackSelector : public fl::ClientSelector {
 public:
  /// Rejects a runtime view whose size is not the population's.
  void initialize(const std::vector<fl::ClientRuntimeInfo>& clients) override;
  void report_result(std::size_t client_id, double loss,
                     std::size_t epoch) override;
  void report_failure(std::size_t client_id, std::size_t epoch,
                      fl::FailureKind kind) override;
  std::vector<std::uint8_t> save_state() const override;
  void load_state(std::span<const std::uint8_t> state) override;

  /// Reliability multiplier of a client (1 = never failed) — for tests.
  double reliability_of(std::size_t client_id) const;

 protected:
  FeedbackSelector(std::size_t population, double initial_loss);

  /// Forgets all feedback and re-sizes to `population` clients.
  void reset(std::size_t population);
  std::size_t population() const { return loss_.size(); }
  /// Whether the client has reported a result yet.
  bool observed(std::size_t client_id) const;
  /// Last reported loss, or initial_loss before the first report.
  double loss_of(std::size_t client_id) const;

  /// Blob pieces for a selector that interleaves its own fields (Oort).
  void write_header(net::WireWriter& w) const;
  void read_header(net::WireReader& r) const;
  const std::vector<double>& losses() const { return loss_; }
  const std::vector<double>& reliabilities() const { return reliability_; }
  /// Installs restored vectors; throws std::runtime_error, changing
  /// nothing, when either size is not the population's.
  void restore(std::vector<double> losses, std::vector<double> reliability);

 private:
  double initial_loss_;
  std::vector<double> loss_;         // NaN until the first report
  std::vector<double> reliability_;  // in [kMinReliability, 1]
};

}  // namespace haccs::select
