// haccs_top — terminal dashboard for a live haccs_server run.
//
// Polls the server's /status endpoint (see --status-port on haccs_server)
// and renders a refreshing per-worker table: liveness, outstanding jobs,
// delivered updates, sessions, and last-heard age, plus the round/quorum
// header. Plain HTTP/1.0 over a raw socket — no dependencies beyond the
// repo's own table renderer.
//
//   ./haccs_server --status-port=0 --status-port-file=/tmp/sp ... &
//   ./haccs_top --port-file=/tmp/sp
//
// For scripted use, --iterations=N polls N times and exits (exit code 1 if
// every poll failed), and output is sequential frames when stdout is not a
// terminal.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/flags.hpp"
#include "src/common/table.hpp"

namespace {

void print_usage() {
  std::puts(
      "haccs_top — live dashboard for haccs_server --status-port\n"
      "  --port=P         status port (from the server's --status-port)\n"
      "  --port-file=F    read the port from F instead (server writes it\n"
      "                   via --status-port-file)\n"
      "  --host=H         server host (default 127.0.0.1)\n"
      "  --interval-ms=T  poll period (default 1000)\n"
      "  --iterations=N   poll N times then exit; 0 = forever (default 0)\n"
      "  --help           this text");
}

/// One-shot HTTP/1.0 GET; returns the response body, or empty on any
/// failure (connection refused mid-restart is a normal condition here).
std::string http_get(const std::string& host, std::uint16_t port,
                     const char* target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      std::string("GET ") + target + " HTTP/1.0\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t body = response.find("\r\n\r\n");
  if (body == std::string::npos || response.find("200") == std::string::npos) {
    return "";
  }
  return response.substr(body + 4);
}

// ---------------------------------------------------------------------------
// Tolerant field extraction: /status is flat-ish JSON emitted by our own
// JsonObject, so scanning for `"key":` is reliable without a full parser —
// and a field this tool does not know about is simply ignored, keeping old
// haccs_top binaries compatible with newer servers.

std::string extract_raw(const std::string& json, const std::string& key,
                        std::size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle, from);
  if (at == std::string::npos) return "";
  std::size_t start = at + needle.size();
  std::size_t end = start;
  while (end < json.size() && json[end] != ',' && json[end] != '}' &&
         json[end] != ']') {
    ++end;
  }
  return json.substr(start, end - start);
}

double extract_number(const std::string& json, const std::string& key,
                      double fallback = 0.0, std::size_t from = 0) {
  const std::string raw = extract_raw(json, key, from);
  if (raw.empty()) return fallback;
  try {
    return std::stod(raw);
  } catch (...) {
    return fallback;
  }
}

std::string extract_bool(const std::string& json, const std::string& key,
                         std::size_t from = 0) {
  const std::string raw = extract_raw(json, key, from);
  return raw == "true" ? "yes" : "no";
}

std::string extract_string(const std::string& json, const std::string& key,
                           const std::string& fallback) {
  std::string raw = extract_raw(json, key);
  if (raw.size() >= 2 && raw.front() == '"' && raw.back() == '"') {
    return raw.substr(1, raw.size() - 2);
  }
  return fallback;
}

/// Splits the `"workers":[{...},{...}]` array into per-worker object
/// strings; nested arrays do not occur inside a worker record.
std::vector<std::string> worker_records(const std::string& json) {
  std::vector<std::string> out;
  const std::size_t at = json.find("\"workers\":[");
  if (at == std::string::npos) return out;
  std::size_t pos = at + std::strlen("\"workers\":[");
  while (pos < json.size() && json[pos] != ']') {
    if (json[pos] == '{') {
      const std::size_t close = json.find('}', pos);
      if (close == std::string::npos) break;
      out.push_back(json.substr(pos, close - pos + 1));
      pos = close + 1;
    } else {
      ++pos;
    }
  }
  return out;
}

std::string format_age(double age_ms) {
  if (age_ms < 0) return "never";
  if (age_ms < 10000) return std::to_string(static_cast<long>(age_ms)) + "ms";
  return haccs::Table::num(age_ms / 1000.0, 1) + "s";
}

std::uint16_t wait_for_port_file(const std::string& path, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    std::ifstream in(path);
    int port = 0;
    if (in && (in >> port) && port > 0 && port <= 65535) {
      return static_cast<std::uint16_t>(port);
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      throw std::runtime_error("timed out waiting for port file " + path);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace haccs;
  const Flags flags(argc, argv);
  if (flags.get_bool("help", false)) {
    print_usage();
    return 0;
  }
  const std::string host = flags.get_string("host", "127.0.0.1");
  auto port = static_cast<std::uint16_t>(flags.get_int("port", 0));
  const std::string port_file = flags.get_string("port-file", "");
  const int interval_ms = static_cast<int>(flags.get_int("interval-ms", 1000));
  const long iterations = static_cast<long>(flags.get_int("iterations", 0));
  flags.check_unused();
  if (port == 0 && port_file.empty()) {
    std::fprintf(stderr, "need --port or --port-file (--help for usage)\n");
    return 1;
  }
  if (!port_file.empty()) port = wait_for_port_file(port_file, 30000);

  const bool tty = ::isatty(1) != 0;
  long polled = 0;
  long succeeded = 0;
  for (;;) {
    const std::string status = http_get(host, port, "/status");
    ++polled;
    if (status.empty()) {
      std::printf("haccs_top: %s:%u unreachable (server down or draining)\n",
                  host.c_str(), port);
    } else {
      ++succeeded;
      if (tty) std::printf("\x1b[H\x1b[J");  // home + clear: refresh in place
      // Which tier of a hierarchical federation this endpoint is: "flat"
      // (classic single-tier server), "root" (tree root over mid-tier
      // aggregators), or "mid" (a haccs_agg process). Older servers omit
      // the field.
      const std::string tier = extract_string(status, "tier", "flat");
      std::printf(
          "haccs @ %s:%u [%s]   round %ld   up %ss   clusters %ld   "
          "quorum %.0f/%.0f (%s)   %s\n",
          host.c_str(), port, tier.c_str(),
          static_cast<long>(extract_number(status, "round")),
          Table::num(extract_number(status, "uptime_s"), 0).c_str(),
          static_cast<long>(extract_number(status, "clusters")),
          extract_number(status, "delivered"),
          extract_number(status, "quorum_target"),
          extract_bool(status, "quorum_met") == "yes" ? "met" : "pending",
          extract_bool(status, "collecting") == "yes" ? "collecting"
                                                      : "idle");
      std::printf("downlink %.1f KiB/s   uplink %.1f KiB/s\n",
                  extract_number(status, "downlink_rate_bps") / 1024.0,
                  extract_number(status, "uplink_rate_bps") / 1024.0);
      // Rows are the endpoint's direct peers: workers under a flat server
      // or a mid-tier aggregator, aggregators under a tree root.
      Table table({tier == "root" ? "agg" : "worker", "alive", "outstanding",
                   "updates", "sessions", "last heard"});
      for (const std::string& w : worker_records(status)) {
        table.add_row(
            {std::to_string(static_cast<long>(extract_number(w, "id"))),
             extract_bool(w, "alive"),
             std::to_string(
                 static_cast<long>(extract_number(w, "outstanding"))),
             std::to_string(static_cast<long>(extract_number(w, "updates"))),
             std::to_string(static_cast<long>(extract_number(w, "sessions"))),
             format_age(extract_number(w, "last_heard_age_ms", -1))});
      }
      table.print();
    }
    std::fflush(stdout);
    if (iterations > 0 && polled >= iterations) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return succeeded > 0 ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "haccs_top: %s\n", e.what());
  return 1;
}
