#include "src/common/logging.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <mutex>
#include <stdexcept>

#include "src/obs/flight.hpp"
#include "src/obs/obs.hpp"

namespace haccs {

namespace {
std::atomic<int> g_level{static_cast<int>(LogLevel::Info)};
std::mutex g_io_mutex;

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO ";
    case LogLevel::Warn: return "WARN ";
    case LogLevel::Error: return "ERROR";
    default: return "?????";
  }
}
}  // namespace

void set_log_level(LogLevel level) { g_level = static_cast<int>(level); }

LogLevel log_level() { return static_cast<LogLevel>(g_level.load()); }

LogLevel parse_log_level(const std::string& name) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "debug") return LogLevel::Debug;
  if (lower == "info") return LogLevel::Info;
  if (lower == "warn") return LogLevel::Warn;
  if (lower == "error") return LogLevel::Error;
  if (lower == "off") return LogLevel::Off;
  throw std::invalid_argument("unknown log level: " + name);
}

namespace detail {
void log_line(LogLevel level, const std::string& message) {
  // ISO-8601 UTC timestamp with millisecond precision, then the level tag
  // and the small dense thread id obs hands out (the same id trace exports
  // use, so a log line can be matched to its trace lane).
  const auto now = std::chrono::system_clock::now();
  const auto since_epoch = now.time_since_epoch();
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      since_epoch)
                      .count() %
                  1000;
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  std::tm utc{};
  gmtime_r(&secs, &utc);
  char stamp[40];
  const std::size_t date_len =
      std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%S", &utc);
  std::snprintf(stamp + date_len, sizeof(stamp) - date_len, ".%03dZ",
                static_cast<int>(ms));
  {
    std::lock_guard lock(g_io_mutex);
    std::fprintf(stderr, "%s [%s] [t%02u] %s\n", stamp, level_tag(level),
                 obs::thread_id(), message.c_str());
  }
  // Mirror formatted lines into the flight recorder's ring so crash dumps
  // carry the log tail. One relaxed atomic when the recorder is disarmed.
  if (obs::FlightRecorder::global().enabled()) {
    char prefix[64];
    std::snprintf(prefix, sizeof(prefix), "%s [%s] [t%02u] ", stamp,
                  level_tag(level), obs::thread_id());
    obs::FlightRecorder::global().record_log_line(prefix + message);
  }
}
}  // namespace detail

}  // namespace haccs
