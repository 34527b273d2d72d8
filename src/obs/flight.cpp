#include "src/obs/flight.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <ctime>

#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"

namespace haccs::obs {

namespace {

extern "C" void flight_signal_handler(int sig) {
  FlightRecorder::global().crash_dump();
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::enable(const std::string& directory,
                            std::size_t max_rounds,
                            std::size_t max_log_lines) {
  std::lock_guard lock(mutex_);
  const std::time_t ts = std::time(nullptr);
  path_ = directory + "/flight-" + std::to_string(ts) + "-" +
          std::to_string(::getpid()) + ".json";
  max_rounds_ = max_rounds;
  max_logs_ = max_log_lines;
  rounds_.clear();
  logs_.clear();
  degraded_rounds_ = 0;
  enabled_.store(true, std::memory_order_relaxed);
  publish_locked();
}

void FlightRecorder::disable() {
  std::lock_guard lock(mutex_);
  enabled_.store(false, std::memory_order_relaxed);
  stable_.store(-1, std::memory_order_release);
  path_.clear();
  rounds_.clear();
  logs_.clear();
  degraded_rounds_ = 0;
}

std::string FlightRecorder::path() const {
  std::lock_guard lock(mutex_);
  return path_;
}

void FlightRecorder::record_round_event(const std::string& round_json) {
  if (!enabled()) return;
  std::lock_guard lock(mutex_);
  rounds_.push_back(round_json);
  while (rounds_.size() > max_rounds_) rounds_.pop_front();
  publish_locked();
}

void FlightRecorder::record_log_line(const std::string& line) {
  if (!enabled()) return;
  std::lock_guard lock(mutex_);
  logs_.push_back(line);
  while (logs_.size() > max_logs_) logs_.pop_front();
  publish_locked();
}

void FlightRecorder::note_quorum_degraded() {
  if (!enabled()) return;
  {
    std::lock_guard lock(mutex_);
    ++degraded_rounds_;
  }
  dump("quorum-degraded");
}

bool FlightRecorder::dump(const char* reason) {
  if (!enabled()) return false;
  std::string doc;
  std::string path;
  {
    std::lock_guard lock(mutex_);
    doc = render_locked(reason);
    path = path_;
  }
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (!f) return false;
  const bool wrote = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  std::fclose(f);
  if (!wrote) return false;
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

void FlightRecorder::install_crash_handlers() {
  struct sigaction action {};
  action.sa_handler = flight_signal_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ::sigaction(SIGSEGV, &action, nullptr);
  ::sigaction(SIGABRT, &action, nullptr);
}

void FlightRecorder::crash_dump() noexcept {
  const int idx = stable_.load(std::memory_order_acquire);
  if (idx < 0) return;
  // Only open/write/close below: this runs inside a SIGSEGV handler. path_
  // and the stable buffer are never mutated after publication, so reading
  // them without the mutex is safe unless the crash itself corrupted them —
  // in which case losing the dump is the acceptable outcome.
  const int fd =
      ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  const char* data = buffers_[idx].data();
  std::size_t left = buffers_[idx].size();
  while (left > 0) {
    const ssize_t wrote = ::write(fd, data, left);
    if (wrote <= 0) break;
    data += wrote;
    left -= static_cast<std::size_t>(wrote);
  }
  ::close(fd);
}

std::string FlightRecorder::render_locked(const char* reason) const {
  std::string out = "{\"reason\":\"";
  out += json_escape(reason);
  out += "\",\"written_ns\":" + std::to_string(now_ns());
  out += ",\"degraded_rounds\":" + std::to_string(degraded_rounds_);
  out += ",\"rounds\":[";
  bool first = true;
  for (const std::string& r : rounds_) {
    if (!first) out += ',';
    first = false;
    out += r;
  }
  out += "],\"log_lines\":[";
  first = true;
  for (const std::string& line : logs_) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(line) + '"';
  }
  out += "],\"metrics\":" + Registry::global().to_json();
  out += '}';
  return out;
}

void FlightRecorder::publish_locked() {
  const int next = 1 - (stable_.load(std::memory_order_relaxed) == 1 ? 1 : 0);
  buffers_[next] = render_locked("crash");
  stable_.store(next, std::memory_order_release);
}

}  // namespace haccs::obs
