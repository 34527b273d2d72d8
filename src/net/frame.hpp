// Framed messages: the unit everything on a HACCS wire travels in.
//
// Frame layout (little-endian, 16-byte header + payload):
//
//   offset  size  field
//   0       4     magic "HNET"
//   4       2     wire version (kWireVersion)
//   6       2     message type (MessageType)
//   8       4     payload length in bytes
//   12      4     CRC-32 of the payload
//   16      len   payload
//
// The CRC covers the payload only: a corrupted header already fails the
// magic/version/length checks, and excluding it lets nn::serialize reuse a
// frame as the checkpoint file format (header rewritten tools still verify
// the parameters). Decoding is incremental (FrameParser) because a TCP read
// returns whatever the kernel has — a frame routinely arrives split across
// several reads, and several small frames can arrive in one.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace haccs::net {

inline constexpr std::uint8_t kFrameMagic[4] = {'H', 'N', 'E', 'T'};
inline constexpr std::uint16_t kWireVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 16;
/// Upper bound on a single payload — far above any model this repo ships
/// (the CIFAR-size MLP is ~800 KB) but small enough that a corrupt length
/// field cannot drive a multi-GiB allocation.
inline constexpr std::size_t kMaxPayloadBytes = std::size_t{1} << 30;

/// Every message the FL protocol exchanges. Values are wire-stable: append
/// new types, never renumber.
enum class MessageType : std::uint16_t {
  Hello = 1,         ///< worker -> server: capabilities handshake
  // 2 is retired (it announced a round's clients ahead of their TrainJobs)
  // and stays unassigned.
  TrainJob = 3,      ///< server -> worker: params + one client's train order
  ClientUpdate = 4,  ///< worker -> server: compressed update + train stats
  Heartbeat = 5,     ///< either direction: liveness probe
  EvalReport = 6,    ///< server -> worker: global accuracy after an eval
  Summary = 7,       ///< worker -> server: distribution summary (§IV-A)
  Shutdown = 8,      ///< server -> worker: drain and exit
  Checkpoint = 9,    ///< file frame: nn::serialize parameter checkpoint
  TraceShard = 10,   ///< worker -> server: buffered trace spans (§5i)
  TopologyHello = 11,  ///< aggregator -> root: subtree handshake (§5j)
  SubtreeUpdate = 12,  ///< aggregator -> root: a subtree's partial FedAvg
  // 13 is retired (it carried one chunk of a partial sum) and stays
  // unassigned.
  SubtreeRound = 14,  ///< root -> aggregator: a subtree's whole round
};

struct Frame {
  MessageType type = MessageType::Heartbeat;
  std::vector<std::uint8_t> payload;
};

/// Serializes a frame (header + payload, CRC filled in).
std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Outcome of an attempted frame decode.
enum class FrameStatus {
  Ok,           ///< one whole frame decoded
  NeedMore,     ///< prefix is valid so far; feed more bytes
  BadMagic,     ///< first bytes are not a frame
  BadVersion,   ///< version field != kWireVersion
  BadLength,    ///< declared payload exceeds kMaxPayloadBytes
  BadChecksum,  ///< payload present but CRC mismatch
};

const char* to_string(FrameStatus status);

/// One-shot decode of a complete buffer (checkpoint files, tests). Returns
/// Ok only when `bytes` holds exactly one whole frame; `consumed` (optional)
/// receives the frame's full size on Ok.
FrameStatus decode_frame(std::span<const std::uint8_t> bytes, Frame* out,
                         std::size_t* consumed = nullptr);

/// Incremental frame decoder for stream transports. Feed arbitrary chunks;
/// poll next() for completed frames. A corrupt frame (bad CRC) is consumed
/// and reported once, then parsing resumes at the following frame — one
/// mangled payload must not poison the rest of the stream. Header-level
/// damage (bad magic/version/length) is unrecoverable: frame boundaries are
/// lost, so the connection must be dropped.
class FrameParser {
 public:
  void feed(std::span<const std::uint8_t> bytes);

  /// Decodes the next frame out of the buffered bytes. Ok fills `out`;
  /// NeedMore means feed() more; BadChecksum consumed the damaged frame;
  /// BadMagic/BadVersion/BadLength poison the parser (fatal() turns true).
  FrameStatus next(Frame* out);

  /// True once an unrecoverable header error was seen.
  bool fatal() const { return fatal_; }

  std::size_t buffered() const { return buffer_.size() - start_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t start_ = 0;  ///< consumed prefix (compacted lazily)
  bool fatal_ = false;
};

}  // namespace haccs::net
