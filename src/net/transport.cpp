#include "src/net/transport.hpp"

namespace haccs::net {

const char* to_string(TransportStatus status) {
  switch (status) {
    case TransportStatus::Ok: return "ok";
    case TransportStatus::Timeout: return "timeout";
    case TransportStatus::Closed: return "closed";
    case TransportStatus::Corrupt: return "corrupt";
  }
  return "unknown";
}

NetMetrics& NetMetrics::get() {
  // Frame sizes span four orders of magnitude (a 16-byte heartbeat to a
  // ~400 KB parameter frame), so the buckets are powers of four in bytes.
  static const std::vector<double> kByteBuckets = {
      64, 256, 1024, 4096, 16384, 65536, 262144, 1048576};
  static NetMetrics metrics{
      obs::Registry::global().counter("net_bytes_sent_total"),
      obs::Registry::global().counter("net_bytes_received_total"),
      obs::Registry::global().counter("net_frames_sent_total"),
      obs::Registry::global().counter("net_frames_received_total"),
      obs::Registry::global().counter("net_frames_corrupt_total"),
      obs::Registry::global().histogram("net_frame_bytes", kByteBuckets),
  };
  return metrics;
}

}  // namespace haccs::net
