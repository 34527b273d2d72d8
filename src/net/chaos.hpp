// ChaosTransport: seeded fault injection for the wire (DESIGN.md §5g).
//
// A decorator that sits between the protocol driver and a real transport
// (loopback or TCP) and damages outbound traffic the way hostile networks
// do: dropped frames, duplicates, reordering, single-bit payload corruption,
// mid-frame truncation, and mid-stream disconnects. Every event is drawn
// from an explicitly seeded Rng, so a chaos run replays bit-exactly from
// (seed, traffic) — the fuzzer's chaos scenarios are as reproducible as its
// clean ones.
//
// Injection happens below encode_frame via Transport::send_raw, so the
// receiver exercises its real defenses: CRC verification catches corruption
// (-> Corrupt, stream still aligned), the frame parser catches truncation
// (on loopback the damaged buffer decodes as Corrupt; on TCP the byte
// stream desynchronizes and the connection degrades to Closed — both are
// failure modes the dispatcher must survive). The receive path is passed
// through untouched: chaos on a duplex link is modeled by wrapping each
// endpoint's sender.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/rng.hpp"
#include "src/net/transport.hpp"

namespace haccs::net {

struct ChaosOptions {
  std::uint64_t seed = 1;
  /// Per-frame probability the frame is silently discarded.
  double drop_rate = 0.0;
  /// Per-frame probability the frame is sent twice back-to-back.
  double duplicate_rate = 0.0;
  /// Per-frame probability the frame is held back and shipped after the
  /// next frame (pairwise reorder — the minimal out-of-order delivery).
  double reorder_rate = 0.0;
  /// Per-frame probability one payload byte is bit-flipped (CRC must catch).
  double corrupt_rate = 0.0;
  /// Per-frame probability the frame is cut short mid-stream.
  double truncate_rate = 0.0;
  /// Per-frame probability the connection is torn down before the send;
  /// this and all later sends fail with Closed until the peer reconnects.
  double disconnect_rate = 0.0;

  bool enabled() const {
    return drop_rate > 0.0 || duplicate_rate > 0.0 || reorder_rate > 0.0 ||
           corrupt_rate > 0.0 || truncate_rate > 0.0 || disconnect_rate > 0.0;
  }
};

/// Counts of injected events, for tests and run summaries.
struct ChaosStats {
  std::size_t dropped = 0;
  std::size_t duplicated = 0;
  std::size_t reordered = 0;
  std::size_t corrupted = 0;
  std::size_t truncated = 0;
  std::size_t disconnects = 0;

  std::size_t total() const {
    return dropped + duplicated + reordered + corrupted + truncated +
           disconnects;
  }
};

class ChaosTransport final : public Transport {
 public:
  ChaosTransport(std::unique_ptr<Transport> inner, ChaosOptions options);
  ~ChaosTransport() override;

  TransportStatus send(const Frame& frame, int timeout_ms = -1) override;
  TransportStatus send_raw(std::span<const std::uint8_t> encoded,
                           int timeout_ms = -1) override;
  TransportStatus recv(Frame* out, int timeout_ms = -1) override;
  void close() override;
  std::string peer() const override;
  bool receiving() const override { return inner_->receiving(); }

  ChaosStats stats() const;

 private:
  /// The chaos pipeline for one outbound frame. Caller holds no lock.
  TransportStatus mangle_and_send(std::vector<std::uint8_t> encoded,
                                  int timeout_ms);

  std::unique_ptr<Transport> inner_;
  ChaosOptions options_;
  mutable std::mutex mutex_;  ///< guards rng_, held_, stats_, disconnected_
  Rng rng_;
  /// Frame held back by a reorder event, shipped after the next send.
  std::vector<std::uint8_t> held_;
  bool has_held_ = false;
  bool disconnected_ = false;
  ChaosStats stats_;
};

/// Wraps `inner` in a ChaosTransport when `options.enabled()`; otherwise
/// returns `inner` unchanged (zero-cost when chaos is off).
std::unique_ptr<Transport> wrap_chaos(std::unique_ptr<Transport> inner,
                                      const ChaosOptions& options);

}  // namespace haccs::net
