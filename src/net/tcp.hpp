// TCP transport: blocking sockets with poll-based per-call timeouts.
//
// Design points:
//   * One socket per worker connection; frames are written whole and parsed
//     incrementally on receive (FrameParser), so a frame split across
//     segments — the normal case for parameter payloads — reassembles
//     transparently.
//   * Every send/recv takes its own timeout and polls toward a deadline;
//     there is no background thread. The protocol driver owns pacing.
//   * connect_tcp makes one attempt; callers that race a starting server
//     to the port (workers, aggregators) own the retry loop and its backoff.
//   * A CRC-damaged frame surfaces as Corrupt and the stream continues;
//     header damage (desynchronized stream) surfaces as Closed, matching
//     the frame parser's recoverable/fatal split.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/net/transport.hpp"

namespace haccs::net {

struct TcpConnectOptions {
  int io_timeout_ms = -1;  ///< default timeout for send/recv (<0 = none)
};

/// Connects to host:port (IPv4 dotted quad or "localhost") in one attempt.
/// Returns nullptr when the connect fails.
std::unique_ptr<Transport> connect_tcp(const std::string& host,
                                       std::uint16_t port,
                                       const TcpConnectOptions& options = {});

/// Listening socket for the server side.
class TcpListener {
 public:
  /// Binds and listens on 127.0.0.1:`port` (port 0 = ephemeral; see port()).
  /// Throws std::runtime_error on bind failure.
  explicit TcpListener(std::uint16_t port, int backlog = 16);
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// The bound port (resolves ephemeral binds).
  std::uint16_t port() const { return port_; }

  /// Accepts one connection; nullptr on timeout (<0 = wait forever).
  std::unique_ptr<Transport> accept(int timeout_ms = -1);

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace haccs::net
