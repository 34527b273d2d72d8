#include "src/obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>

#include "src/obs/obs.hpp"

namespace haccs::obs {

namespace {

std::atomic<std::uint64_t> g_next_span{0};
std::atomic<std::uint64_t> g_span_salt{0};

// Innermost active Span on this thread; restored on destruction so sibling
// spans see the same parent and nested spans chain correctly.
thread_local std::uint64_t t_open_span = 0;

// Round context published by the engine (set_round_context). Written and
// read on the round loop's thread; relaxed atomics keep cross-thread
// readers (worker heartbeat threads never read these — they cache their
// own copy) well-defined anyway.
std::atomic<std::uint64_t> g_round_trace_id{0};
std::atomic<std::uint64_t> g_round_parent_span{0};
std::atomic<std::int64_t> g_round_index{-1};

void append_args(std::string& out, std::uint64_t span_id,
                 std::uint64_t parent_id, std::int64_t round,
                 const char* arg_name, std::int64_t arg_value) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                ",\"args\":{\"span\":%llu,\"parent\":%llu,\"round\":%lld",
                static_cast<unsigned long long>(span_id),
                static_cast<unsigned long long>(parent_id),
                static_cast<long long>(round));
  out += buf;
  if (arg_name != nullptr) {
    out += ",\"" + json_escape(arg_name) + "\":" + std::to_string(arg_value);
  }
  out += '}';
}

void append_event(std::string& out, bool& first, int pid,
                  const std::string& name, const std::string& category,
                  std::uint32_t tid, std::uint64_t ts_ns, std::uint64_t dur_ns,
                  bool instant, std::uint64_t span_id, std::uint64_t parent_id,
                  std::int64_t round, const char* arg_name = nullptr,
                  std::int64_t arg_value = 0) {
  // Chrome trace timestamps are microseconds; keep ns precision in the
  // fraction.
  const double ts_us = static_cast<double>(ts_ns) * 1e-3;
  char buf[160];
  if (!first) out += ',';
  first = false;
  out += "{\"name\":\"" + name + "\",\"cat\":\"" + category + "\"";
  if (instant) {
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"i\",\"pid\":%d,\"tid\":%u,\"ts\":%.3f,"
                  "\"s\":\"t\"",
                  pid, tid, ts_us);
  } else {
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"X\",\"pid\":%d,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f",
                  pid, tid, ts_us, static_cast<double>(dur_ns) * 1e-3);
  }
  out += buf;
  if (span_id != 0) {
    append_args(out, span_id, parent_id, round, arg_name, arg_value);
  }
  out += '}';
}

void append_process_name(std::string& out, bool& first, int pid,
                         const std::string& label) {
  if (!first) out += ',';
  first = false;
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
         std::to_string(pid) + ",\"args\":{\"name\":\"" + json_escape(label) +
         "\"}}";
}

}  // namespace

std::uint64_t next_span_id() {
  return g_span_salt.load(std::memory_order_relaxed) +
         g_next_span.fetch_add(1, std::memory_order_relaxed) + 1;
}

void set_span_id_salt(std::uint64_t salt) {
  g_span_salt.store(salt, std::memory_order_relaxed);
}

std::uint64_t current_span_id() { return t_open_span; }

std::uint64_t process_trace_id() {
  static const std::uint64_t id =
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count()) |
      1;
  return id;
}

void set_round_context(const TraceContext& ctx) {
  g_round_trace_id.store(ctx.trace_id, std::memory_order_relaxed);
  g_round_parent_span.store(ctx.parent_span, std::memory_order_relaxed);
  g_round_index.store(ctx.round, std::memory_order_relaxed);
}

void clear_round_context() {
  g_round_trace_id.store(0, std::memory_order_relaxed);
  g_round_parent_span.store(0, std::memory_order_relaxed);
  g_round_index.store(-1, std::memory_order_relaxed);
}

TraceContext round_context() {
  TraceContext ctx;
  ctx.trace_id = g_round_trace_id.load(std::memory_order_relaxed);
  ctx.parent_span = g_round_parent_span.load(std::memory_order_relaxed);
  ctx.round = g_round_index.load(std::memory_order_relaxed);
  return ctx;
}

TraceBuffer& TraceBuffer::global() {
  static TraceBuffer buffer;
  return buffer;
}

void TraceBuffer::record(const TraceEvent& event) {
  Shard& shard = shards_[event.tid % kShards];
  std::lock_guard lock(shard.mutex);
  shard.events.push_back(event);
}

std::size_t TraceBuffer::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    total += shard.events.size();
  }
  return total;
}

std::vector<TraceEvent> TraceBuffer::snapshot() const {
  std::vector<TraceEvent> out;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    out.insert(out.end(), shard.events.begin(), shard.events.end());
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_ns < b.ts_ns;
            });
  return out;
}

void TraceBuffer::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    shard.events.clear();
  }
}

std::string TraceBuffer::to_chrome_json() const {
  const auto events = snapshot();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[256];
  // Thread metadata first, so viewers label lanes before any event lands.
  for (std::uint32_t tid = 0; tid < thread_count(); ++tid) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",", tid,
                  json_escape(thread_name(tid)).c_str());
    out += buf;
    first = false;
  }
  for (const TraceEvent& e : events) {
    append_event(out, first, /*pid=*/1, e.name, e.category, e.tid, e.ts_ns,
                 e.dur_ns, e.instant, e.span_id, e.parent_id, e.round,
                 e.arg_name, e.arg_value);
  }
  out += "]}";
  return out;
}

bool TraceBuffer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string json = to_chrome_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  return ok;
}

PortableTraceEvent to_portable(const TraceEvent& event) {
  PortableTraceEvent out;
  out.name = event.name;
  out.category = event.category;
  out.tid = event.tid;
  out.ts_ns = event.ts_ns;
  out.dur_ns = event.dur_ns;
  out.span_id = event.span_id;
  out.parent_id = event.parent_id;
  out.round = event.round;
  out.instant = event.instant;
  return out;
}

std::string merged_chrome_json(const std::vector<TraceEvent>& server_events,
                               const std::vector<WorkerTrack>& workers) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  append_process_name(out, first, 1, "haccs_server");
  char buf[256];
  for (std::uint32_t tid = 0; tid < thread_count(); ++tid) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",", tid,
                  json_escape(thread_name(tid)).c_str());
    out += buf;
    first = false;
  }
  // A worker may ship several shards (one per committed round); all shards
  // from one worker share a pid so Perfetto shows a single track per
  // process, with the metadata record emitted once.
  std::vector<std::uint32_t> named;
  for (const WorkerTrack& track : workers) {
    const int pid = 2 + static_cast<int>(track.worker_id);
    if (std::find(named.begin(), named.end(), track.worker_id) ==
        named.end()) {
      named.push_back(track.worker_id);
      append_process_name(
          out, first, pid,
          track.label.empty()
              ? "haccs_worker-" + std::to_string(track.worker_id)
              : track.label);
    }
  }
  for (const TraceEvent& e : server_events) {
    append_event(out, first, /*pid=*/1, json_escape(e.name),
                 json_escape(e.category), e.tid, e.ts_ns, e.dur_ns, e.instant,
                 e.span_id, e.parent_id, e.round, e.arg_name, e.arg_value);
  }
  for (const WorkerTrack& track : workers) {
    const int pid = 2 + static_cast<int>(track.worker_id);
    for (const PortableTraceEvent& e : track.events) {
      const std::int64_t shifted =
          static_cast<std::int64_t>(e.ts_ns) + track.clock_offset_ns;
      append_event(out, first, pid, json_escape(e.name),
                   json_escape(e.category), e.tid,
                   shifted > 0 ? static_cast<std::uint64_t>(shifted) : 0,
                   e.dur_ns, e.instant, e.span_id, e.parent_id, e.round);
    }
  }
  out += "]}";
  return out;
}

Span::Span(const char* name, const char* category)
    : name_(name), category_(category), active_(trace_enabled()) {
  if (active_) {
    begin_ns_ = now_ns();
    id_ = next_span_id();
    parent_id_ = t_open_span;
    t_open_span = id_;
  }
}

Span::~Span() {
  if (!active_) return;
  t_open_span = parent_id_;
  TraceEvent event;
  event.name = name_;
  event.category = category_;
  event.tid = thread_id();
  event.ts_ns = begin_ns_;
  event.dur_ns = now_ns() - begin_ns_;
  event.span_id = id_;
  event.parent_id = parent_id_;
  event.round = g_round_index.load(std::memory_order_relaxed);
  event.arg_name = arg_name_;
  event.arg_value = arg_value_;
  TraceBuffer::global().record(event);
}

void Span::set_arg(const char* name, std::int64_t value) {
  arg_name_ = name;
  arg_value_ = value;
}

void instant(const char* name, const char* category) {
  if (!trace_enabled()) return;
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.tid = thread_id();
  event.ts_ns = now_ns();
  event.instant = true;
  event.parent_id = t_open_span;
  event.round = g_round_index.load(std::memory_order_relaxed);
  TraceBuffer::global().record(event);
}

}  // namespace haccs::obs
