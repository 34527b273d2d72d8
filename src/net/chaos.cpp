#include "src/net/chaos.hpp"

#include <utility>

#include "src/common/logging.hpp"

namespace haccs::net {

ChaosTransport::ChaosTransport(std::unique_ptr<Transport> inner,
                               ChaosOptions options)
    : inner_(std::move(inner)), options_(options), rng_(options.seed) {
  if (!inner_) {
    throw std::invalid_argument("ChaosTransport: null inner transport");
  }
}

ChaosTransport::~ChaosTransport() { close(); }

TransportStatus ChaosTransport::send(const Frame& frame, int timeout_ms) {
  return mangle_and_send(encode_frame(frame), timeout_ms);
}

TransportStatus ChaosTransport::send_raw(std::span<const std::uint8_t> encoded,
                                         int timeout_ms) {
  return mangle_and_send({encoded.begin(), encoded.end()}, timeout_ms);
}

TransportStatus ChaosTransport::mangle_and_send(
    std::vector<std::uint8_t> encoded, int timeout_ms) {
  // Decide the frame's fate under the lock (one deterministic draw order),
  // then perform inner sends outside it so a slow wire never serializes
  // against the RNG.
  std::vector<std::vector<std::uint8_t>> to_send;
  bool tear_down = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (disconnected_) return TransportStatus::Closed;
    if (options_.disconnect_rate > 0.0 &&
        rng_.bernoulli(options_.disconnect_rate)) {
      disconnected_ = true;
      has_held_ = false;
      held_.clear();
      tear_down = true;
    } else if (options_.drop_rate > 0.0 && rng_.bernoulli(options_.drop_rate)) {
      // The caller sees Ok — exactly what a lossy network looks like from
      // the sender's side of a kernel buffer.
    } else {
      if (options_.corrupt_rate > 0.0 &&
          rng_.bernoulli(options_.corrupt_rate) &&
          encoded.size() > kFrameHeaderBytes) {
        const std::size_t payload_len = encoded.size() - kFrameHeaderBytes;
        const std::size_t at =
            kFrameHeaderBytes + rng_.uniform_index(payload_len);
        encoded[at] ^= static_cast<std::uint8_t>(1u << rng_.uniform_index(8));
      }
      if (options_.truncate_rate > 0.0 &&
          rng_.bernoulli(options_.truncate_rate) && encoded.size() > 1) {
        encoded.resize(1 + rng_.uniform_index(encoded.size() - 1));
      }
      const bool duplicate = options_.duplicate_rate > 0.0 &&
                             rng_.bernoulli(options_.duplicate_rate);
      const bool hold = options_.reorder_rate > 0.0 &&
                        rng_.bernoulli(options_.reorder_rate) && !has_held_;
      if (hold) {
        held_ = encoded;
        has_held_ = true;
        if (duplicate) to_send.push_back(encoded);
      } else {
        to_send.push_back(encoded);
        if (duplicate) to_send.push_back(encoded);
        if (has_held_) {
          to_send.push_back(std::move(held_));
          held_.clear();
          has_held_ = false;
        }
      }
    }
  }
  if (tear_down) {
    HACCS_WARN << "chaos: injected disconnect on " << inner_->peer();
    inner_->close();
    return TransportStatus::Closed;
  }
  for (const auto& buf : to_send) {
    const TransportStatus status = inner_->send_raw(buf, timeout_ms);
    if (status != TransportStatus::Ok) return status;
  }
  return TransportStatus::Ok;
}

TransportStatus ChaosTransport::recv(Frame* out, int timeout_ms) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (disconnected_) return TransportStatus::Closed;
  }
  return inner_->recv(out, timeout_ms);
}

void ChaosTransport::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    disconnected_ = true;
    has_held_ = false;
    held_.clear();
  }
  inner_->close();
}

std::string ChaosTransport::peer() const {
  return "chaos(" + inner_->peer() + ")";
}

std::unique_ptr<Transport> wrap_chaos(std::unique_ptr<Transport> inner,
                                      const ChaosOptions& options) {
  if (!options.enabled()) return inner;
  return std::make_unique<ChaosTransport>(std::move(inner), options);
}

}  // namespace haccs::net
