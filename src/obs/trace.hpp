// Trace spans: RAII wall-clock scopes exported as Chrome trace-event JSON.
//
// Usage at an instrumentation site:
//
//   { obs::Span span("local_train", "fl");  ... work ... }
//
// When tracing is disabled the constructor reads one relaxed atomic and
// returns — no clock read, no allocation. When enabled, the destructor
// records a completed event into a lock-sharded process-global buffer
// (shard chosen by thread id, so concurrent workers rarely contend on one
// mutex). The export is the Chrome trace-event format, loadable directly in
// chrome://tracing or https://ui.perfetto.dev.
//
// Cross-process correlation (DESIGN.md §5i): every active span carries a
// process-unique id and the id of the span that was open on the same thread
// when it started. The server publishes a per-round TraceContext (trace id,
// round span id, round index); workers receive it inside TrainJob frames,
// record their own spans parented under the server's round span, and ship
// them back as PortableTraceEvents. merged_chrome_json() stitches the
// server buffer and the returned worker shards into one timeline with one
// Chrome "process" track per worker.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace haccs::obs {

/// One completed span or instant marker. `name` and `category` must be
/// string literals (or otherwise outlive the buffer): the hot path records
/// the pointers, never a copy, to stay allocation-free per event payload.
struct TraceEvent {
  const char* name = "";
  const char* category = "";
  std::uint32_t tid = 0;
  std::uint64_t ts_ns = 0;   ///< begin, nanoseconds since process start
  std::uint64_t dur_ns = 0;  ///< 0 for instants
  std::uint64_t span_id = 0;    ///< 0 for instants / untracked events
  std::uint64_t parent_id = 0;  ///< 0 = no enclosing span
  std::int64_t round = -1;      ///< federated round index; -1 = none
  bool instant = false;
  /// Optional numeric span argument (Span::set_arg); null = none.
  const char* arg_name = nullptr;
  std::int64_t arg_value = 0;
};

/// Compact cross-process trace correlation token, carried as an optional
/// trailer on serving-plane messages. trace_id == 0 means "no context":
/// codecs skip the trailer entirely so flags-off wire bytes are unchanged.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;  ///< server-side round span id
  std::int64_t round = -1;
  bool valid() const { return trace_id != 0; }
};

/// Allocates a process-unique span id (never 0). Worker processes salt the
/// high bits (set_span_id_salt) so ids stay distinct in a merged trace.
std::uint64_t next_span_id();
void set_span_id_salt(std::uint64_t salt);

/// Id of the innermost active Span on this thread; 0 when none.
std::uint64_t current_span_id();

/// Stable nonzero id for this process's trace session (derived once from
/// the clock; no RNG draw, so tracing never perturbs seeded runs).
std::uint64_t process_trace_id();

/// Round context published by the engine while a round span is open; the
/// dispatcher snapshots it into outgoing TrainJob frames.
void set_round_context(const TraceContext& ctx);
void clear_round_context();
TraceContext round_context();

/// Lock-sharded span buffer. `global()` is the process buffer the Span RAII
/// path records into; worker loops additionally keep private instances for
/// the spans they ship back to the server.
class TraceBuffer {
 public:
  static TraceBuffer& global();

  void record(const TraceEvent& event);

  std::size_t size() const;
  std::vector<TraceEvent> snapshot() const;
  void clear();

  /// Chrome trace-event JSON: thread_name metadata ("M") records followed
  /// by complete ("X") and instant ("i") events, sorted by timestamp.
  std::string to_chrome_json() const;

  /// Writes to_chrome_json() to `path`; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  static constexpr std::size_t kShards = 16;
  struct Shard {
    mutable std::mutex mutex;
    std::vector<TraceEvent> events;
  };
  std::array<Shard, kShards> shards_;
};

/// Wire/merge form of a TraceEvent: owns its strings, so it survives
/// crossing a process boundary where the literal pointers mean nothing.
struct PortableTraceEvent {
  std::string name;
  std::string category;
  std::uint32_t tid = 0;
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  std::int64_t round = -1;
  bool instant = false;
};

PortableTraceEvent to_portable(const TraceEvent& event);

/// One worker's returned span shard(s), plus the clock offset that maps the
/// worker's ns-since-its-start timestamps onto the server's timeline
/// (server_now_at_receive - worker_send_ns; an upper bound that ignores
/// transit time, good enough for timeline alignment).
struct WorkerTrack {
  std::uint32_t worker_id = 0;
  std::string label;
  std::int64_t clock_offset_ns = 0;
  std::vector<PortableTraceEvent> events;
};

/// Single Chrome trace document: server events on pid 1, each worker on
/// pid 2 + worker_id with a process_name metadata record. Events with a
/// span id carry {"span","parent","round"} args for parent/child stitching.
std::string merged_chrome_json(const std::vector<TraceEvent>& server_events,
                               const std::vector<WorkerTrack>& workers);

/// RAII trace span. Construction and destruction are no-ops (one relaxed
/// atomic load each) while tracing is disabled.
class Span {
 public:
  explicit Span(const char* name, const char* category = "haccs");
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Process-unique id of this span; 0 when tracing was disabled at
  /// construction.
  std::uint64_t id() const { return id_; }

  /// Attaches one numeric argument, exported in the event's "args" next to
  /// the span ids (a later call replaces it). `name` must be a string
  /// literal. Cheap and harmless while tracing is disabled.
  void set_arg(const char* name, std::int64_t value);

 private:
  const char* name_;
  const char* category_;
  const char* arg_name_ = nullptr;
  std::int64_t arg_value_ = 0;
  std::uint64_t begin_ns_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_id_ = 0;
  bool active_;
};

/// Records a zero-duration marker (fault events, rejections); no-op while
/// tracing is disabled.
void instant(const char* name, const char* category = "haccs");

}  // namespace haccs::obs
