// Minimal leveled logging to stderr.
//
// Benches and examples narrate progress at Info level; the FL round engine
// logs per-round details at Debug. The level is process-global and defaults
// to Info; apply_log_level sets it from the command line or environment.
//
// Each line is prefixed with an ISO-8601 UTC timestamp, the level tag, and
// the obs thread id ("2026-08-05T12:34:56.789Z [INFO ] [t00] ..."), so log
// lines line up with trace lanes and run events from the same process.
#pragma once

#include <sstream>
#include <string>

namespace haccs {

class Flags;

enum class LogLevel : int { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// The global log threshold; messages below it are discarded.
LogLevel log_level();

/// Sets the threshold from --log-level or, when the flag is absent, the
/// HACCS_LOG environment variable a fleet launcher sets for every process:
/// "debug" / "info" / "warn" / "error" / "off" (case-insensitive). Leaves
/// it alone when neither is set; throws std::invalid_argument on any other
/// value.
void apply_log_level(const Flags& flags);

namespace detail {
void log_line(LogLevel level, const std::string& message);

class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { log_line(level_, os_.str()); }
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  template <typename T>
  LogStream& operator<<(const T& value) {
    os_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace haccs

#define HACCS_LOG(level)                                  \
  if (static_cast<int>(::haccs::LogLevel::level) <        \
      static_cast<int>(::haccs::log_level())) {           \
  } else                                                  \
    ::haccs::detail::LogStream(::haccs::LogLevel::level)

#define HACCS_DEBUG HACCS_LOG(Debug)
#define HACCS_INFO HACCS_LOG(Info)
#define HACCS_WARN HACCS_LOG(Warn)
#define HACCS_ERROR HACCS_LOG(Error)
