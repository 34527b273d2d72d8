// Process-wide observability switchboard (DESIGN.md §5e).
//
// Three pillars, each independently enabled at runtime:
//   * trace spans     (trace.hpp)   — RAII scopes exported as Chrome
//                                     trace-event JSON (Perfetto-loadable);
//   * metrics         (metrics.hpp) — named counters / gauges / histograms,
//                                     snapshotable to JSON;
//   * run events      (events.hpp)  — structured JSONL, one record per
//                                     training round.
//
// Every hot-path entry point checks one relaxed atomic flag before touching
// a clock or allocating, so a run with telemetry off pays one predictable
// branch per site. Nothing in this subsystem ever consumes RNG state, which
// is what keeps selector output byte-identical with the pillars on or off
// (pinned by ObsEngine.TracedRunMatchesUntraced).
//
// haccs_obs is the base-most library in the build: it depends on nothing
// else in the repo, so even haccs_common (thread pool, logging) can be
// instrumented without a dependency cycle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace haccs::obs {

/// Per-pillar enable flags (process-global, relaxed atomics).
bool trace_enabled();
void set_trace_enabled(bool on);
bool metrics_enabled();
void set_metrics_enabled(bool on);
/// True while a RunEventLog sink is open (events.hpp manages this flag).
bool events_enabled();

/// True when any pillar needs wall-clock readings; phase timers check this
/// once instead of three flags.
bool timing_enabled();

/// Monotonic nanoseconds since the first observability call in the process
/// (steady clock — immune to wall-clock adjustments).
std::uint64_t now_ns();

/// Small dense id for the calling thread (0 = first thread observed, which
/// is normally main). Cached in a thread_local after the first call.
std::uint32_t thread_id();

/// Names the calling thread in trace exports (e.g. "worker-3"); unnamed
/// threads export as "thread-<id>" ("main" for id 0).
void set_thread_name(const std::string& name);
std::string thread_name(std::uint32_t tid);
std::uint32_t thread_count();

/// Wall-clock phase timer. Reads the clock only when timing_enabled() was
/// true at construction; lap_ms() returns 0 otherwise, so disabled runs pay
/// a single branch per lap.
class StopWatch {
 public:
  StopWatch();
  /// Milliseconds since construction or the previous lap.
  double lap_ms();

 private:
  bool active_;
  std::uint64_t last_ = 0;
};

/// Minor page-fault meter for the whole process (getrusage ru_minflt, every
/// thread's faults). Like StopWatch, it reads the count only when
/// timing_enabled() was true at construction; lap() returns 0 otherwise.
class FaultMeter {
 public:
  FaultMeter();
  /// Minor faults since construction or the previous lap.
  std::uint64_t lap();

 private:
  bool active_;
  std::uint64_t last_ = 0;
};

// ---------------------------------------------------------------------------
// Minimal JSON emission (shared by all three pillars and the tool summaries;
// no parser, no DOM — just correctly escaped text).

/// Escapes `s` for embedding inside a JSON string literal (no quotes added).
std::string json_escape(const std::string& s);

/// Formats a double as a JSON number ("null" for NaN/Inf, which JSON cannot
/// represent).
std::string json_number(double v);

/// Serializes indices as a JSON array, e.g. "[3,1,4]".
std::string json_array(const std::vector<std::size_t>& values);

/// Incremental JSON object builder for flat-ish records (run events, bench
/// summaries). Fields are emitted in insertion order; keys are taken as-is
/// (callers use literal identifiers, no escaping needed).
class JsonObject {
 public:
  JsonObject& field(const char* key, double value);
  JsonObject& field(const char* key, bool value);
  JsonObject& field(const char* key, const char* value);
  JsonObject& field(const char* key, const std::string& value);
  template <typename T>
    requires std::is_integral_v<T>
  JsonObject& field(const char* key, T value) {
    if constexpr (std::is_signed_v<T>) {
      return int_field(key, static_cast<long long>(value));
    } else {
      return uint_field(key, static_cast<unsigned long long>(value));
    }
  }
  /// Embeds pre-serialized JSON (arrays, nested objects) verbatim.
  JsonObject& field_raw(const char* key, const std::string& json);

  /// The completed object, braces included.
  std::string str() const;

 private:
  JsonObject& int_field(const char* key, long long value);
  JsonObject& uint_field(const char* key, unsigned long long value);
  void begin_field(const char* key);
  std::string body_;
};

// ---------------------------------------------------------------------------
// One-call wiring for tools and benches.

/// Artifact destinations; an empty path leaves that pillar disabled.
struct Options {
  std::string trace_path;    ///< Chrome trace-event JSON
  std::string metrics_path;  ///< metrics registry snapshot JSON
  std::string events_path;   ///< structured run events JSONL
};

/// Enables each pillar whose path is non-empty (and disables the rest),
/// opens the events sink, and registers a one-time atexit flush — so every
/// binary that parses --trace/--metrics/--events emits artifacts without
/// touching its main(). Throws std::runtime_error if a sink cannot be
/// opened.
void configure(const Options& options);

/// Writes the configured trace/metrics artifacts and flushes the events
/// sink. Idempotent until the next configure(); safe to call with nothing
/// configured.
void flush();

}  // namespace haccs::obs
