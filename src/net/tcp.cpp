#include "src/net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/common/logging.hpp"
#include "src/obs/trace.hpp"

namespace haccs::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Milliseconds left before `deadline`; -1 for "no deadline"; 0 when past.
int remaining_ms(bool has_deadline, Clock::time_point deadline) {
  if (!has_deadline) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left <= 0 ? 0 : static_cast<int>(left);
}

/// poll() one fd for `events`; true when ready, false on timeout.
/// Throws on hard poll errors other than EINTR.
bool poll_fd(int fd, short events, int timeout_ms) {
  pollfd p{};
  p.fd = fd;
  p.events = events;
  for (;;) {
    const int rc = ::poll(&p, 1, timeout_ms);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno != EINTR) {
      throw std::runtime_error(std::string("poll: ") + std::strerror(errno));
    }
  }
}

class TcpTransport final : public Transport {
 public:
  TcpTransport(int fd, std::string peer, int default_timeout_ms)
      : fd_(fd), peer_(std::move(peer)), default_timeout_ms_(default_timeout_ms) {
    const int one = 1;
    // Frames are latency-sensitive round-trip messages; never Nagle-delay
    // the small control frames behind a parameter payload.
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Non-blocking I/O: poll() owns all waiting, so every call honors its
    // deadline even mid-frame (a blocking send could stall past the timeout
    // inside the kernel once poll reported partial writability).
    const int fl = ::fcntl(fd_, F_GETFL, 0);
    if (fl >= 0) ::fcntl(fd_, F_SETFL, fl | O_NONBLOCK);
  }

  ~TcpTransport() override { close(); }

  TransportStatus send(const Frame& frame, int timeout_ms) override {
    std::vector<std::uint8_t> encoded;
    {
      obs::Span span("net_encode", "net");
      encoded = encode_frame(frame);
    }
    return send_raw(encoded, timeout_ms);
  }

  TransportStatus send_raw(std::span<const std::uint8_t> encoded,
                           int timeout_ms) override {
    if (timeout_ms < 0) timeout_ms = default_timeout_ms_;
    obs::Span span("net_send", "net");
    const bool has_deadline = timeout_ms >= 0;
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    // One frame's bytes go out contiguously even when a heartbeat thread
    // shares the transport: an interleaved write would desynchronize the
    // peer's frame parser permanently.
    std::lock_guard<std::mutex> lock(send_mutex_);
    if (fd_ < 0) return TransportStatus::Closed;
    std::size_t sent = 0;
    while (sent < encoded.size()) {
      if (!poll_fd(fd_, POLLOUT, remaining_ms(has_deadline, deadline))) {
        return TransportStatus::Timeout;
      }
      const ssize_t n = ::send(fd_, encoded.data() + sent,
                               encoded.size() - sent, MSG_NOSIGNAL);
      if (n < 0) {
        // EINTR (signal) and EAGAIN (poll raced the kernel buffer) are
        // retryable mid-frame — a short write is never a fatal Closed.
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
        return TransportStatus::Closed;
      }
      sent += static_cast<std::size_t>(n);
    }
    NetMetrics& m = NetMetrics::get();
    m.bytes_sent.inc(encoded.size());
    m.frames_sent.inc();
    m.frame_bytes.observe(static_cast<double>(encoded.size()));
    return TransportStatus::Ok;
  }

  TransportStatus recv(Frame* out, int timeout_ms) override {
    if (fd_ < 0) return TransportStatus::Closed;
    if (timeout_ms < 0) timeout_ms = default_timeout_ms_;
    obs::Span span("net_recv", "net");
    const bool has_deadline = timeout_ms >= 0;
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    NetMetrics& m = NetMetrics::get();
    for (;;) {
      // Drain buffered bytes first: several frames can land in one read.
      {
        obs::Span decode_span("net_decode", "net");
        const FrameStatus status = parser_.next(out);
        if (status == FrameStatus::Ok) {
          m.frames_received.inc();
          return TransportStatus::Ok;
        }
        if (status == FrameStatus::BadChecksum) {
          m.frames_corrupt.inc();
          return TransportStatus::Corrupt;
        }
        if (status != FrameStatus::NeedMore) {
          // Desynchronized stream: the connection is unusable.
          HACCS_WARN << "tcp recv from " << peer_
                     << ": fatal frame error: " << to_string(status);
          return TransportStatus::Closed;
        }
      }
      if (!poll_fd(fd_, POLLIN, remaining_ms(has_deadline, deadline))) {
        return TransportStatus::Timeout;
      }
      std::uint8_t chunk[64 * 1024];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) return TransportStatus::Closed;  // orderly EOF
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
        return TransportStatus::Closed;
      }
      m.bytes_received.inc(static_cast<std::uint64_t>(n));
      parser_.feed({chunk, static_cast<std::size_t>(n)});
    }
  }

  void close() override {
    // shutdown() first, outside the lock: it wakes a sender blocked in
    // poll() (POLLOUT -> POLLERR) so the mutex frees promptly, and unblocks
    // a concurrent recv().
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
    std::lock_guard<std::mutex> lock(send_mutex_);
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  std::string peer() const override { return peer_; }

  bool receiving() const override { return parser_.buffered() > 0; }

 private:
  int fd_;
  std::string peer_;
  int default_timeout_ms_;
  FrameParser parser_;
  std::mutex send_mutex_;
};

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string ip = (host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("tcp: bad IPv4 address: " + host);
  }
  return addr;
}

}  // namespace

std::unique_ptr<Transport> connect_tcp(const std::string& host,
                                       std::uint16_t port,
                                       const TcpConnectOptions& options) {
  const sockaddr_in addr = make_addr(host, port);
  int backoff_ms = options.initial_backoff_ms;
  for (int attempt = 0; attempt < options.attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, 2000);
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) continue;
    int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr));
    if (rc != 0 && errno == EINTR) {
      // POSIX: an EINTR'd connect keeps completing in the background.
      // Retrying connect() would fail with EALREADY/EISCONN, so wait for
      // writability and read the real outcome from SO_ERROR instead of
      // treating the interruption as a failed attempt.
      try {
        if (poll_fd(fd, POLLOUT, 2000)) {
          int so_error = -1;
          socklen_t len = sizeof(so_error);
          if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) == 0 &&
              so_error == 0) {
            rc = 0;
          }
        }
      } catch (const std::exception&) {
        rc = -1;
      }
    }
    if (rc == 0) {
      return std::make_unique<TcpTransport>(
          fd, host + ":" + std::to_string(port), options.io_timeout_ms);
    }
    ::close(fd);
  }
  HACCS_WARN << "tcp: connect to " << host << ":" << port << " failed after "
             << options.attempts << " attempts";
  return nullptr;
}

TcpListener::TcpListener(std::uint16_t port, int backlog) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("tcp: socket: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = make_addr("127.0.0.1", port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("tcp: bind 127.0.0.1:" + std::to_string(port) +
                             ": " + err);
  }
  if (::listen(fd_, backlog) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("tcp: listen: " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<Transport> TcpListener::accept(int timeout_ms) {
  if (fd_ < 0) return nullptr;
  if (!poll_fd(fd_, POLLIN, timeout_ms)) return nullptr;
  sockaddr_in peer{};
  socklen_t len = sizeof(peer);
  int fd;
  do {
    // A signal between poll() and accept() must not surface as "no
    // connection": the pending connection is still queued, so retry.
    fd = ::accept(fd_, reinterpret_cast<sockaddr*>(&peer), &len);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return nullptr;
  char ip[INET_ADDRSTRLEN] = "?";
  ::inet_ntop(AF_INET, &peer.sin_addr, ip, sizeof(ip));
  return std::make_unique<TcpTransport>(
      fd, std::string(ip) + ":" + std::to_string(ntohs(peer.sin_port)), -1);
}

}  // namespace haccs::net
