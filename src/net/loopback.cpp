#include "src/net/loopback.hpp"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <vector>

#include "src/obs/trace.hpp"

namespace haccs::net {

namespace {

/// Frames a direction buffers before send blocks (backpressure).
constexpr std::size_t kMaxQueue = 1024;

/// One direction of the pair: a bounded queue of encoded frames.
struct Channel {
  std::mutex mutex;
  std::condition_variable readable;
  std::condition_variable writable;
  std::deque<std::vector<std::uint8_t>> frames;
  bool closed = false;

  std::size_t sent_count = 0;  ///< frames pushed (corruption cadence)
};

struct Shared {
  explicit Shared(const LoopbackOptions& opts) : options(opts) {}
  LoopbackOptions options;
  Channel a_to_b;
  Channel b_to_a;
};

class LoopbackTransport final : public Transport {
 public:
  LoopbackTransport(std::shared_ptr<Shared> shared, bool is_a)
      : shared_(std::move(shared)), is_a_(is_a) {}

  ~LoopbackTransport() override { close(); }

  TransportStatus send(const Frame& frame, int timeout_ms) override {
    std::vector<std::uint8_t> encoded;
    {
      obs::Span span("net_encode", "net");
      encoded = encode_frame(frame);
    }
    return push_encoded(std::move(encoded), timeout_ms);
  }

  TransportStatus send_raw(std::span<const std::uint8_t> encoded,
                           int timeout_ms) override {
    return push_encoded({encoded.begin(), encoded.end()}, timeout_ms);
  }

 private:
  TransportStatus push_encoded(std::vector<std::uint8_t> encoded,
                               int timeout_ms) {
    Channel& ch = is_a_ ? shared_->a_to_b : shared_->b_to_a;
    const std::size_t corrupt_every =
        is_a_ ? 0 : shared_->options.corrupt_every_n_b;
    const std::size_t bytes = encoded.size();
    {
      obs::Span span("net_send", "net");
      std::unique_lock<std::mutex> lock(ch.mutex);
      if (!wait_until(lock, ch.writable, timeout_ms, [&] {
            return ch.closed || ch.frames.size() < kMaxQueue;
          })) {
        return TransportStatus::Timeout;
      }
      if (ch.closed) return TransportStatus::Closed;
      ++ch.sent_count;
      if (corrupt_every > 0 && ch.sent_count % corrupt_every == 0 &&
          encoded.size() > kFrameHeaderBytes) {
        // Flip one payload bit: the CRC check on the far side must catch it.
        encoded[kFrameHeaderBytes] ^= 0x40;
      }
      ch.frames.push_back(std::move(encoded));
      ch.readable.notify_one();
    }
    NetMetrics& m = NetMetrics::get();
    m.bytes_sent.inc(bytes);
    m.frames_sent.inc();
    m.frame_bytes.observe(static_cast<double>(bytes));
    return TransportStatus::Ok;
  }

 public:
  TransportStatus recv(Frame* out, int timeout_ms) override {
    Channel& ch = is_a_ ? shared_->b_to_a : shared_->a_to_b;
    std::vector<std::uint8_t> encoded;
    {
      obs::Span span("net_recv", "net");
      std::unique_lock<std::mutex> lock(ch.mutex);
      if (!wait_until(lock, ch.readable, timeout_ms,
                      [&] { return ch.closed || !ch.frames.empty(); })) {
        return TransportStatus::Timeout;
      }
      if (ch.frames.empty()) return TransportStatus::Closed;
      encoded = std::move(ch.frames.front());
      ch.frames.pop_front();
      ch.writable.notify_one();
    }
    NetMetrics& m = NetMetrics::get();
    m.bytes_received.inc(encoded.size());
    obs::Span span("net_decode", "net");
    const FrameStatus status = decode_frame(encoded, out);
    if (status != FrameStatus::Ok) {
      m.frames_corrupt.inc();
      return TransportStatus::Corrupt;
    }
    m.frames_received.inc();
    return TransportStatus::Ok;
  }

  void close() override {
    for (Channel* ch : {&shared_->a_to_b, &shared_->b_to_a}) {
      std::lock_guard<std::mutex> lock(ch->mutex);
      ch->closed = true;
      ch->readable.notify_all();
      ch->writable.notify_all();
    }
  }

  std::string peer() const override {
    return is_a_ ? "loopback:worker" : "loopback:server";
  }

 private:
  /// Waits for `ready` with the transport timeout convention (<0 forever).
  template <typename Pred>
  static bool wait_until(std::unique_lock<std::mutex>& lock,
                         std::condition_variable& cv, int timeout_ms,
                         Pred ready) {
    if (timeout_ms < 0) {
      cv.wait(lock, ready);
      return true;
    }
    return cv.wait_for(lock, std::chrono::milliseconds(timeout_ms), ready);
  }

  std::shared_ptr<Shared> shared_;
  bool is_a_;
};

}  // namespace

LoopbackPair make_loopback_pair(const LoopbackOptions& options) {
  auto shared = std::make_shared<Shared>(options);
  LoopbackPair pair;
  pair.a = std::make_unique<LoopbackTransport>(shared, true);
  pair.b = std::make_unique<LoopbackTransport>(shared, false);
  return pair;
}

}  // namespace haccs::net
