// Crash flight recorder (DESIGN.md §5i): a fixed-size in-memory ring of the
// last N round events, recent log lines, and a metrics snapshot, dumped to
// `flight-<ts>-<pid>.json` when a serving run dies.
//
// Two dump paths with very different constraints:
//   * normal (SIGTERM drain, quorum-degraded round): re-render with the
//     actual reason and write tmp + rename, so readers never observe a
//     half-written file;
//   * crash (SIGSEGV/SIGABRT): only async-signal-safe calls are legal, so
//     every mutation pre-renders the full document into one of two buffers
//     and atomically publishes the index — the handler just open()s and
//     write()s the stable buffer. Best-effort by construction: a corruption
//     that smashes the buffers themselves can still lose the dump.
//
// Disabled-path cost is the usual one relaxed atomic per probe; nothing is
// allocated and no clock is read until enable() is called.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>

namespace haccs::obs {

class FlightRecorder {
 public:
  static FlightRecorder& global();

  /// Arms the recorder: fixes the dump path to
  /// `directory`/flight-<ts>-<pid>.json (ts = wall-clock seconds at enable,
  /// pid this process's, so processes sharing a directory never clobber
  /// each other's dump) and starts retaining history.
  void enable(const std::string& directory, std::size_t max_rounds = 32,
              std::size_t max_log_lines = 128);
  /// Disarms and drops retained state (tests).
  void disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// The fixed dump path chosen at enable(); empty while disabled.
  std::string path() const;

  /// Retains one pre-serialized round-event JSON object (the same string
  /// round_event_json produces); evicts the oldest past max_rounds.
  void record_round_event(const std::string& round_json);
  /// Retains one formatted log line; evicts the oldest past max_log_lines.
  void record_log_line(const std::string& line);

  /// Counts the degraded round and dumps immediately — a degraded quorum is
  /// exactly the moment post-mortem state is worth persisting.
  void note_quorum_degraded();

  /// Renders with `reason` and writes atomically (tmp + rename). Returns
  /// false when disabled or on I/O failure.
  bool dump(const char* reason);

  /// Installs SIGSEGV/SIGABRT handlers that write the stable pre-rendered
  /// buffer and then re-raise with the default disposition.
  void install_crash_handlers();

  /// Async-signal-safe: writes the last published buffer to path(). Public
  /// so the signal handler can reach it; not useful elsewhere.
  void crash_dump() noexcept;

 private:
  std::string render_locked(const char* reason) const;
  void publish_locked();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::string path_;
  std::size_t max_rounds_ = 32;
  std::size_t max_logs_ = 128;
  std::deque<std::string> rounds_;
  std::deque<std::string> logs_;
  std::uint64_t degraded_rounds_ = 0;
  // Crash-path double buffer: render into buffers_[1 - stable], then flip.
  std::string buffers_[2];
  std::atomic<int> stable_{-1};
};

}  // namespace haccs::obs
