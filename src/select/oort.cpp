#include "src/select/oort.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "src/net/wire.hpp"

namespace haccs::select {

OortSelector::OortSelector(OortConfig config)
    : FeedbackSelector(0, config.initial_loss), config_(config) {
  if (config_.alpha < 0.0) {
    throw std::invalid_argument("OortSelector: alpha must be >= 0");
  }
  if (config_.deadline_quantile <= 0.0 || config_.deadline_quantile > 1.0) {
    throw std::invalid_argument("OortSelector: bad deadline quantile");
  }
}

void OortSelector::initialize(
    const std::vector<fl::ClientRuntimeInfo>& clients) {
  reset(clients.size());
  last_round_.assign(clients.size(), 0);

  std::vector<double> latencies;
  latencies.reserve(clients.size());
  for (const auto& c : clients) latencies.push_back(c.latency_s);
  std::sort(latencies.begin(), latencies.end());
  const auto idx = static_cast<std::size_t>(
      config_.deadline_quantile * static_cast<double>(latencies.size() - 1));
  deadline_s_ = latencies[idx];
}

void OortSelector::report_result(std::size_t client_id, double loss,
                                 std::size_t epoch) {
  if (client_id >= population()) return;
  FeedbackSelector::report_result(client_id, loss, epoch);
  last_round_[client_id] = epoch + 1;
}

std::vector<std::uint8_t> OortSelector::save_state() const {
  net::WireWriter w;
  write_header(w);
  w.f64(deadline_s_);
  w.f64_array(losses());  // NaN sentinels round-trip bit-exactly
  w.u64(last_round_.size());
  for (std::size_t r : last_round_) w.u64(static_cast<std::uint64_t>(r));
  w.f64_array(reliabilities());
  return w.take();
}

void OortSelector::load_state(std::span<const std::uint8_t> state) {
  net::WireReader r(state);
  read_header(r);
  const double deadline = r.f64();
  auto observed = r.f64_array();
  const auto rounds_len = r.u64();
  std::vector<std::size_t> rounds;
  rounds.reserve(static_cast<std::size_t>(rounds_len));
  for (std::uint64_t i = 0; i < rounds_len; ++i) {
    rounds.push_back(static_cast<std::size_t>(r.u64()));
  }
  auto reliability = r.f64_array();
  r.expect_exhausted();
  if (rounds.size() != last_round_.size()) {
    throw std::runtime_error("Oort: state population mismatch");
  }
  restore(std::move(observed), std::move(reliability));
  deadline_s_ = deadline;
  last_round_ = std::move(rounds);
}

double OortSelector::utility(const fl::ClientRuntimeInfo& client,
                             std::size_t epoch) const {
  double u = static_cast<double>(client.num_samples) * loss_of(client.id);
  if (client.latency_s > deadline_s_ && deadline_s_ > 0.0) {
    u *= std::pow(deadline_s_ / client.latency_s, config_.alpha);
  }
  // Temporal-uncertainty bonus for clients not observed recently.
  if (last_round_[client.id] > 0 && epoch + 1 > last_round_[client.id]) {
    u += std::sqrt(0.1 * std::log(static_cast<double>(epoch + 1)) /
                   static_cast<double>(last_round_[client.id])) *
         static_cast<double>(client.num_samples);
  }
  // Reliability penalty from reported mid-round failures (1.0 when clean).
  return u * reliability_of(client.id);
}

std::vector<std::size_t> OortSelector::select(
    std::size_t k, const std::vector<fl::ClientRuntimeInfo>& clients,
    std::size_t epoch, Rng& rng) {
  if (population() != clients.size()) initialize(clients);

  auto ids = fl::available_ids(clients);
  if (ids.size() <= k) return ids;

  // Split available ids into explored (have an observation) and unexplored.
  std::vector<std::size_t> explored, unexplored;
  for (std::size_t id : ids) {
    (observed(id) ? explored : unexplored).push_back(id);
  }

  const double eps = std::max(
      config_.min_exploration,
      config_.initial_exploration *
          std::pow(config_.exploration_decay, static_cast<double>(epoch)));
  auto explore_slots = std::min(
      unexplored.size(),
      static_cast<std::size_t>(std::llround(eps * static_cast<double>(k))));

  std::vector<std::size_t> out;
  out.reserve(k);

  // Exploration: uniform over never-observed clients.
  if (explore_slots > 0) {
    for (std::size_t pick :
         rng.sample_without_replacement(unexplored.size(), explore_slots)) {
      out.push_back(unexplored[pick]);
    }
  }

  // Exploitation: highest-utility clients fill the remaining slots. When
  // there are not enough explored clients, spill into unexplored ones (which
  // all share the initial-loss utility) ordered by utility as well.
  std::vector<std::size_t> pool;
  for (std::size_t id : ids) {
    if (std::find(out.begin(), out.end(), id) == out.end()) pool.push_back(id);
  }
  std::sort(pool.begin(), pool.end(), [&](std::size_t a, std::size_t b) {
    const double ua = utility(clients[a], epoch);
    const double ub = utility(clients[b], epoch);
    if (ua != ub) return ua > ub;
    return a < b;  // deterministic tie-break
  });
  for (std::size_t id : pool) {
    if (out.size() >= k) break;
    out.push_back(id);
  }
  return out;
}

}  // namespace haccs::select
