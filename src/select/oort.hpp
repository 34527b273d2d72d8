// Oort baseline (Lai et al., "Oort: Efficient Federated Learning via Guided
// Participant Selection", OSDI'21), re-implemented from the published
// description.
//
// Each client carries a utility combining a statistical term (sample count x
// observed loss — the paper's gradient-norm proxy) with a system term that
// penalizes clients slower than the developer's preferred round duration T:
//
//   U_i = |B_i| * loss_i * (T / t_i)^alpha   if t_i > T, else |B_i| * loss_i
//
// plus an exploration bonus sqrt(0.1 * ln(R) / last_round_i) for clients not
// recently observed. A decaying epsilon fraction of the k slots explores
// never-tried clients at random; the rest exploit the top-utility clients.
#pragma once

#include "src/select/feedback_selector.hpp"

namespace haccs::select {

struct OortConfig {
  /// System-penalty exponent (alpha in the Oort paper).
  double alpha = 2.0;
  /// Preferred round duration T as a quantile of the client latency
  /// distribution (Oort tunes T to a "developer-preferred" duration; the
  /// 80th percentile keeps most clients unpenalized).
  double deadline_quantile = 0.8;
  /// Initial / minimum exploration fraction with multiplicative decay.
  double initial_exploration = 0.3;
  double min_exploration = 0.1;
  double exploration_decay = 0.98;
  /// Loss assumed for never-trained clients.
  double initial_loss = 2.302585;
};

/// Utility is scaled by the client's reliability from the shared feedback
/// ledger (Oort's own reliability story): reported failures shrink it,
/// later successes recover it.
class OortSelector final : public FeedbackSelector {
 public:
  explicit OortSelector(OortConfig config);

  void initialize(const std::vector<fl::ClientRuntimeInfo>& clients) override;
  std::vector<std::size_t> select(std::size_t k,
                                  const std::vector<fl::ClientRuntimeInfo>& clients,
                                  std::size_t epoch, Rng& rng) override;
  /// Records the loss and the participation epoch.
  void report_result(std::size_t client_id, double loss,
                     std::size_t epoch) override;
  std::string name() const override { return "Oort"; }

  /// Current utility of a client (exposed for tests).
  double utility(const fl::ClientRuntimeInfo& client, std::size_t epoch) const;

  double deadline() const { return deadline_s_; }

  /// Crash-resume state: deadline, observed losses, participation history,
  /// and reliability multipliers.
  std::vector<std::uint8_t> save_state() const override;
  void load_state(std::span<const std::uint8_t> state) override;

 private:
  OortConfig config_;
  double deadline_s_ = 0.0;
  std::vector<std::size_t> last_round_;   // last participation epoch + 1
};

}  // namespace haccs::select
