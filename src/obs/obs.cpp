#include "src/obs/obs.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>

#include <sys/resource.h>

#include "src/obs/events.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace haccs::obs {

namespace {

std::atomic<bool> g_trace{false};
std::atomic<bool> g_metrics{false};

// Thread registry: dense ids + optional names, shared by trace export and
// the logging prefix. Ids are handed out on first contact, so id 0 is
// whichever thread touches observability first (normally main).
std::mutex g_thread_mutex;
std::vector<std::string> g_thread_names;
std::atomic<std::uint32_t> g_thread_count{0};

std::uint32_t register_thread() {
  std::lock_guard lock(g_thread_mutex);
  const auto id = static_cast<std::uint32_t>(g_thread_names.size());
  g_thread_names.emplace_back();
  g_thread_count.store(static_cast<std::uint32_t>(g_thread_names.size()),
                       std::memory_order_relaxed);
  return id;
}

thread_local std::uint32_t t_thread_id = register_thread();

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Process-start anchor so trace timestamps start near zero.
const std::uint64_t g_epoch_ns = steady_now_ns();

// Artifact destinations set by configure(); written by flush().
std::mutex g_configure_mutex;
Options g_options;
bool g_flushed = false;
bool g_atexit_registered = false;

}  // namespace

bool trace_enabled() { return g_trace.load(std::memory_order_relaxed); }
void set_trace_enabled(bool on) {
  g_trace.store(on, std::memory_order_relaxed);
}

bool metrics_enabled() { return g_metrics.load(std::memory_order_relaxed); }
void set_metrics_enabled(bool on) {
  g_metrics.store(on, std::memory_order_relaxed);
}

bool events_enabled() { return RunEventLog::global().is_open(); }

bool timing_enabled() {
  return trace_enabled() || metrics_enabled() || events_enabled();
}

std::uint64_t now_ns() { return steady_now_ns() - g_epoch_ns; }

std::uint32_t thread_id() { return t_thread_id; }

void set_thread_name(const std::string& name) {
  const std::uint32_t id = thread_id();
  std::lock_guard lock(g_thread_mutex);
  g_thread_names[id] = name;
}

std::string thread_name(std::uint32_t tid) {
  {
    std::lock_guard lock(g_thread_mutex);
    if (tid < g_thread_names.size() && !g_thread_names[tid].empty()) {
      return g_thread_names[tid];
    }
  }
  return tid == 0 ? "main" : "thread-" + std::to_string(tid);
}

std::uint32_t thread_count() {
  return g_thread_count.load(std::memory_order_relaxed);
}

StopWatch::StopWatch() : active_(timing_enabled()) {
  if (active_) last_ = steady_now_ns();
}

double StopWatch::lap_ms() {
  if (!active_) return 0.0;
  const std::uint64_t now = steady_now_ns();
  const double ms = static_cast<double>(now - last_) * 1e-6;
  last_ = now;
  return ms;
}

namespace {
std::uint64_t process_minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_minflt);
}
}  // namespace

FaultMeter::FaultMeter() : active_(timing_enabled()) {
  if (active_) last_ = process_minor_faults();
}

std::uint64_t FaultMeter::lap() {
  if (!active_) return 0;
  const std::uint64_t now = process_minor_faults();
  const std::uint64_t faults = now - last_;
  last_ = now;
  return faults;
}

// ---------------------------------------------------------------------------
// JSON emission

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";  // NaN / Inf are not representable in JSON
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string json_array(const std::vector<std::size_t>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(values[i]);
  }
  out += ']';
  return out;
}

void JsonObject::begin_field(const char* key) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += key;
  body_ += "\":";
}

JsonObject& JsonObject::field(const char* key, double value) {
  begin_field(key);
  body_ += json_number(value);
  return *this;
}

JsonObject& JsonObject::field(const char* key, bool value) {
  begin_field(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::field(const char* key, const char* value) {
  return field(key, std::string(value));
}

JsonObject& JsonObject::field(const char* key, const std::string& value) {
  begin_field(key);
  body_ += '"';
  body_ += json_escape(value);
  body_ += '"';
  return *this;
}

JsonObject& JsonObject::int_field(const char* key, long long value) {
  begin_field(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::uint_field(const char* key, unsigned long long value) {
  begin_field(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::field_raw(const char* key, const std::string& json) {
  begin_field(key);
  body_ += json;
  return *this;
}

std::string JsonObject::str() const { return "{" + body_ + "}"; }

// ---------------------------------------------------------------------------
// configure / flush

void configure(const Options& options) {
  // Touch every singleton before the atexit registration below: atexit
  // callbacks run before the destructors of statics constructed earlier, so
  // the flush at exit always sees live sinks.
  TraceBuffer::global();
  Registry::global();
  RunEventLog& events = RunEventLog::global();

  std::lock_guard lock(g_configure_mutex);
  g_options = options;
  g_flushed = false;
  set_trace_enabled(!options.trace_path.empty());
  set_metrics_enabled(!options.metrics_path.empty());
  if (options.events_path.empty()) {
    events.close();
  } else {
    events.open(options.events_path);
  }
  const bool any = !options.trace_path.empty() ||
                   !options.metrics_path.empty() ||
                   !options.events_path.empty();
  if (any && !g_atexit_registered) {
    g_atexit_registered = true;
    std::atexit([] { flush(); });
  }
}

void flush() {
  Options options;
  {
    std::lock_guard lock(g_configure_mutex);
    if (g_flushed) return;
    g_flushed = true;
    options = g_options;
  }
  if (!options.trace_path.empty()) {
    TraceBuffer::global().write(options.trace_path);
    std::fprintf(stderr, "wrote trace to %s\n", options.trace_path.c_str());
  }
  if (!options.metrics_path.empty()) {
    Registry::global().write(options.metrics_path);
    std::fprintf(stderr, "wrote metrics to %s\n", options.metrics_path.c_str());
  }
  RunEventLog::global().flush();
}

}  // namespace haccs::obs
