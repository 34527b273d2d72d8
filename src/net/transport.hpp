// Transport: the message-boundary abstraction between the FL protocol and
// the bytes underneath.
//
// A transport moves whole frames with per-call timeouts. Two
// implementations: LoopbackTransport (queue-backed, in-process — the
// engine's loopback run is bit-identical to direct dispatch) and
// TcpTransport (blocking sockets + poll). Both run every frame through the
// real encoder/decoder, so CRC verification, byte counters, and the frame-
// size histogram measure actual serialized traffic in either mode.
//
// Error model: Ok / Timeout / Closed / Corrupt. Corrupt means a frame
// arrived but failed its CRC (or decoded to garbage) — the connection is
// still usable (frame boundaries held), the payload is lost. The protocol
// driver maps Corrupt and Timeout onto ClientSelector::report_failure
// exactly like sim::FaultModel crashes, so selectors cannot tell simulated
// faults from real wire damage.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "src/net/frame.hpp"
#include "src/obs/metrics.hpp"

namespace haccs::net {

enum class TransportStatus : std::uint8_t {
  Ok = 0,
  Timeout,  ///< nothing arrived / nothing writable within the deadline
  Closed,   ///< peer hung up or the connection is unrecoverable
  Corrupt,  ///< a frame arrived damaged (bad CRC); stream still aligned
};

const char* to_string(TransportStatus status);

class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends one frame. Blocks up to `timeout_ms` (<0 = wait forever).
  /// Thread-safe: concurrent senders interleave at frame (not byte)
  /// granularity, so a worker's heartbeat thread can share the transport
  /// with its serving loop.
  virtual TransportStatus send(const Frame& frame, int timeout_ms = -1) = 0;

  /// Sends pre-encoded frame bytes verbatim (no CRC recomputation). This is
  /// the injection seam ChaosTransport uses to put deliberately damaged
  /// bytes on the wire; send() is encode_frame + send_raw. Same timeout and
  /// thread-safety contract as send().
  virtual TransportStatus send_raw(std::span<const std::uint8_t> encoded,
                                   int timeout_ms = -1) = 0;

  /// Receives one frame into `out`. Blocks up to `timeout_ms` (<0 = wait
  /// forever). On Corrupt the damaged frame was consumed; the next recv
  /// reads the following frame.
  virtual TransportStatus recv(Frame* out, int timeout_ms = -1) = 0;

  /// Closes the endpoint; pending and future calls on either side fail with
  /// Closed. Idempotent.
  virtual void close() = 0;

  /// Human-readable peer description for logs ("loopback", "127.0.0.1:4242").
  virtual std::string peer() const = 0;

  /// True while part of an inbound frame has arrived but not all of it: the
  /// peer is mid-send, so a recv() Timeout does not mean the link is quiet.
  /// Call from the receiving thread. Transports that deliver whole frames
  /// (loopback) never are.
  virtual bool receiving() const { return false; }
};

/// Shared wire telemetry (obs registry instruments, cached once). Both
/// transports report through these, so `net_bytes_*_total` means "bytes any
/// transport moved" process-wide.
struct NetMetrics {
  obs::Counter& bytes_sent;
  obs::Counter& bytes_received;
  obs::Counter& frames_sent;
  obs::Counter& frames_received;
  obs::Counter& frames_corrupt;
  obs::Histogram& frame_bytes;

  static NetMetrics& get();
};

}  // namespace haccs::net
