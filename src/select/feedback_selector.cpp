#include "src/select/feedback_selector.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/net/wire.hpp"

namespace haccs::select {

FeedbackSelector::FeedbackSelector(std::size_t population, double initial_loss)
    : initial_loss_(initial_loss) {
  reset(population);
}

void FeedbackSelector::reset(std::size_t population) {
  loss_.assign(population, std::numeric_limits<double>::quiet_NaN());
  reliability_.assign(population, 1.0);
}

void FeedbackSelector::initialize(
    const std::vector<fl::ClientRuntimeInfo>& clients) {
  if (clients.size() != population()) {
    throw std::invalid_argument(
        name() + ": runtime view does not match the population");
  }
}

void FeedbackSelector::report_result(std::size_t client_id, double loss,
                                     std::size_t /*epoch*/) {
  if (client_id >= population()) return;
  loss_[client_id] = loss;
  reliability_[client_id] += 0.5 * (1.0 - reliability_[client_id]);
}

void FeedbackSelector::report_failure(std::size_t client_id,
                                      std::size_t /*epoch*/,
                                      fl::FailureKind /*kind*/) {
  if (client_id >= population()) return;
  reliability_[client_id] =
      std::max(kMinReliability, reliability_[client_id] * kFailureFactor);
}

double FeedbackSelector::reliability_of(std::size_t client_id) const {
  return client_id < population() ? reliability_[client_id] : 1.0;
}

bool FeedbackSelector::observed(std::size_t client_id) const {
  return !std::isnan(loss_[client_id]);
}

double FeedbackSelector::loss_of(std::size_t client_id) const {
  return observed(client_id) ? loss_[client_id] : initial_loss_;
}

void FeedbackSelector::write_header(net::WireWriter& w) const {
  w.string(name());
  w.u16(1);  // state-blob version
}

void FeedbackSelector::read_header(net::WireReader& r) const {
  if (r.string() != name()) {
    throw std::runtime_error(name() + ": state blob from another selector");
  }
  if (r.u16() != 1) {
    throw std::runtime_error(name() + ": unsupported state version");
  }
}

void FeedbackSelector::restore(std::vector<double> losses,
                               std::vector<double> reliability) {
  if (losses.size() != population() || reliability.size() != population()) {
    throw std::runtime_error(name() + ": state population mismatch");
  }
  loss_ = std::move(losses);
  reliability_ = std::move(reliability);
}

std::vector<std::uint8_t> FeedbackSelector::save_state() const {
  net::WireWriter w;
  write_header(w);
  w.f64_array(loss_);  // NaN sentinels round-trip bit-exactly
  w.f64_array(reliability_);
  return w.take();
}

void FeedbackSelector::load_state(std::span<const std::uint8_t> state) {
  net::WireReader r(state);
  read_header(r);
  auto losses = r.f64_array();
  auto reliability = r.f64_array();
  r.expect_exhausted();
  restore(std::move(losses), std::move(reliability));
}

}  // namespace haccs::select
