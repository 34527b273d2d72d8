#include "src/net/frame.hpp"

#include <cstring>

#include "src/net/crc32.hpp"
#include "src/net/wire.hpp"

namespace haccs::net {

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  WireWriter w;
  w.reserve(kFrameHeaderBytes + frame.payload.size());
  w.bytes(kFrameMagic, sizeof(kFrameMagic));
  w.u16(kWireVersion);
  w.u16(static_cast<std::uint16_t>(frame.type));
  w.u32(static_cast<std::uint32_t>(frame.payload.size()));
  w.u32(crc32(frame.payload.data(), frame.payload.size()));
  w.bytes(frame.payload.data(), frame.payload.size());
  return w.take();
}

const char* to_string(FrameStatus status) {
  switch (status) {
    case FrameStatus::Ok: return "ok";
    case FrameStatus::NeedMore: return "need-more";
    case FrameStatus::BadMagic: return "bad-magic";
    case FrameStatus::BadVersion: return "bad-version";
    case FrameStatus::BadLength: return "bad-length";
    case FrameStatus::BadChecksum: return "bad-checksum";
  }
  return "unknown";
}

namespace {

/// Decodes one frame from the front of `bytes`. Shared by the one-shot and
/// incremental paths; `consumed` is set only on Ok / BadChecksum (the two
/// outcomes that advance past a complete frame).
FrameStatus decode_front(std::span<const std::uint8_t> bytes, Frame* out,
                         std::size_t* consumed) {
  if (bytes.size() < kFrameHeaderBytes) {
    if (bytes.empty()) return FrameStatus::NeedMore;
    // An impossible prefix is reportable before the full header arrives.
    if (std::memcmp(bytes.data(), kFrameMagic,
                    std::min(bytes.size(), sizeof(kFrameMagic))) != 0) {
      return FrameStatus::BadMagic;
    }
    return FrameStatus::NeedMore;
  }
  WireReader r(bytes);
  std::uint8_t magic[4];
  r.bytes(magic, sizeof(magic));
  if (std::memcmp(magic, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    return FrameStatus::BadMagic;
  }
  const std::uint16_t version = r.u16();
  if (version != kWireVersion) return FrameStatus::BadVersion;
  const std::uint16_t type = r.u16();
  const std::uint32_t len = r.u32();
  const std::uint32_t expected_crc = r.u32();
  if (len > kMaxPayloadBytes) return FrameStatus::BadLength;
  if (bytes.size() < kFrameHeaderBytes + len) return FrameStatus::NeedMore;

  const std::uint8_t* payload = bytes.data() + kFrameHeaderBytes;
  if (consumed) *consumed = kFrameHeaderBytes + len;
  if (crc32(payload, len) != expected_crc) return FrameStatus::BadChecksum;
  out->type = static_cast<MessageType>(type);
  out->payload.assign(payload, payload + len);
  return FrameStatus::Ok;
}

}  // namespace

FrameStatus decode_frame(std::span<const std::uint8_t> bytes, Frame* out,
                         std::size_t* consumed) {
  std::size_t used = 0;
  const FrameStatus status = decode_front(bytes, out, &used);
  if (status == FrameStatus::Ok && used != bytes.size()) {
    // One-shot decode demands exactly one frame (checkpoint files).
    return FrameStatus::BadLength;
  }
  if (consumed) *consumed = used;
  return status;
}

void FrameParser::feed(std::span<const std::uint8_t> bytes) {
  // Compact the consumed prefix before growing — keeps the buffer bounded
  // by one in-flight frame rather than the whole connection history.
  if (start_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(start_));
    start_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

FrameStatus FrameParser::next(Frame* out) {
  if (fatal_) return FrameStatus::BadMagic;
  if (buffered() == 0) return FrameStatus::NeedMore;
  std::size_t consumed = 0;
  const FrameStatus status = decode_front(
      std::span<const std::uint8_t>(buffer_).subspan(start_), out, &consumed);
  switch (status) {
    case FrameStatus::Ok:
    case FrameStatus::BadChecksum:
      start_ += consumed;  // skip the frame either way; stream stays aligned
      return status;
    case FrameStatus::NeedMore:
      return status;
    case FrameStatus::BadMagic:
    case FrameStatus::BadVersion:
    case FrameStatus::BadLength:
      fatal_ = true;  // boundary lost: resynchronizing would mean guessing
      return status;
  }
  return FrameStatus::BadMagic;
}

}  // namespace haccs::net
