// Outside-in probes for haccs_bench.
//
// Every layer is timed from outside the library, through the public seams a
// deployment could also wrap: a fl::ClientSelector decorator, a
// fl::RoundDispatcher decorator and a net::Transport decorator. Each forwards
// every virtual to the wrapped object, so a decorated run computes exactly
// what an undecorated one does (haccs_bench's self-check compares the two
// runs' round events byte for byte).
//
// The decorators always keep counts (cheap integer adds). Clock reads and
// spans happen only when a Tracer is attached, which is what the traced run
// does; the untraced run that produces the end-to-end numbers passes null.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/fl/dispatch.hpp"
#include "src/fl/selector.hpp"
#include "src/net/transport.hpp"

namespace haccs::benchmark {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One closed span. `name` is a string literal.
struct SpanRecord {
  const char* name = "";
  std::uint32_t track = 0;   ///< 0 = engine thread, 1 + w = worker w
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = top level
  std::int64_t round = -1;   ///< round epoch; -1 outside the round loop
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
};

/// In-memory span recorder. Each track is written by exactly one thread, so
/// the tracks need no lock; the engine thread publishes the open round span
/// through atomics so worker tracks can parent their spans under it.
class Tracer {
 public:
  explicit Tracer(std::size_t tracks) : tracks_(tracks) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void open(std::uint32_t track, const char* name) {
    Track& t = tracks_.at(track);
    SpanRecord span;
    span.name = name;
    span.track = track;
    span.id = (static_cast<std::uint64_t>(track) << 48) | ++t.next_id;
    span.parent = t.open.empty() ? (track == 0 ? 0 : round_span_.load())
                                 : t.open.back().id;
    span.round = round_.load(std::memory_order_relaxed);
    span.begin_ns = now_ns();
    t.open.push_back(span);
  }

  void close(std::uint32_t track) {
    Track& t = tracks_.at(track);
    SpanRecord span = t.open.back();
    t.open.pop_back();
    span.end_ns = now_ns();
    t.done.push_back(span);
  }

  /// Opens the round span on the engine track and publishes it.
  void begin_round(std::int64_t epoch) {
    round_.store(epoch, std::memory_order_relaxed);
    open(0, "fl.round");
    round_span_.store(tracks_[0].open.back().id);
  }
  void end_round() {
    close(0);
    round_span_.store(0);
    round_.store(-1, std::memory_order_relaxed);
  }

  /// All closed spans, every track. Call only after worker threads joined.
  std::vector<SpanRecord> spans() const {
    std::vector<SpanRecord> out;
    for (const Track& t : tracks_) {
      out.insert(out.end(), t.done.begin(), t.done.end());
    }
    return out;
  }

 private:
  struct Track {
    std::vector<SpanRecord> open;
    std::vector<SpanRecord> done;
    std::uint64_t next_id = 0;
  };
  std::vector<Track> tracks_;
  std::atomic<std::int64_t> round_{-1};
  std::atomic<std::uint64_t> round_span_{0};
};

/// RAII span; a no-op without a tracer.
class Scope {
 public:
  Scope(Tracer* tracer, std::uint32_t track, const char* name)
      : tracer_(tracer), track_(track) {
    if (tracer_) tracer_->open(track_, name);
  }
  ~Scope() { end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Closes the span before the scope ends; later calls do nothing.
  void end() {
    if (tracer_) tracer_->close(track_);
    tracer_ = nullptr;
  }

 private:
  Tracer* tracer_;
  std::uint32_t track_;
};

/// Selector decorator: times select() and initialize(), counts select calls
/// per epoch and report_failure calls.
class ProbedSelector final : public fl::ClientSelector {
 public:
  ProbedSelector(fl::ClientSelector& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  void initialize(const std::vector<fl::ClientRuntimeInfo>& clients) override {
    Scope scope(tracer_, 0, "core.initialize");
    inner_.initialize(clients);
  }
  std::vector<std::size_t> select(
      std::size_t k, const std::vector<fl::ClientRuntimeInfo>& clients,
      std::size_t epoch, Rng& rng) override {
    select_epochs.push_back(epoch);
    Scope scope(tracer_, 0, "core.select");
    return inner_.select(k, clients, epoch, rng);
  }
  void report_result(std::size_t client_id, double loss,
                     std::size_t epoch) override {
    inner_.report_result(client_id, loss, epoch);
  }
  void report_update(std::size_t client_id, std::span<const float> update,
                     std::size_t epoch) override {
    inner_.report_update(client_id, update, epoch);
  }
  void report_failure(std::size_t client_id, std::size_t epoch,
                      fl::FailureKind kind) override {
    ++failure_reports;
    inner_.report_failure(client_id, epoch, kind);
  }
  std::vector<std::uint8_t> save_state() const override {
    return inner_.save_state();
  }
  void load_state(std::span<const std::uint8_t> state) override {
    inner_.load_state(state);
  }
  std::string name() const override { return inner_.name(); }

  std::vector<std::size_t> select_epochs;  ///< one entry per select() call
  std::size_t failure_reports = 0;

 private:
  fl::ClientSelector& inner_;
  Tracer* tracer_;
};

/// Dispatcher decorator: times execute(), the whole local-training step.
class ProbedDispatcher final : public fl::RoundDispatcher {
 public:
  ProbedDispatcher(fl::RoundDispatcher& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  void execute(std::span<const fl::TrainJobSpec> jobs,
               const std::vector<float>& global_params,
               std::vector<fl::TrainOutcome>& outcomes) override {
    Scope scope(tracer_, 0, "fl.dispatch");
    inner_.execute(jobs, global_params, outcomes);
  }
  const std::vector<fl::PartialAggregate>* partials() const override {
    return inner_.partials();
  }

 private:
  fl::RoundDispatcher& inner_;
  Tracer* tracer_;
};

/// Transport decorator for either end of a connection. Counts whole-frame
/// wire bytes both ways. Traced, the root end records net.send/net.recv
/// spans on the engine track; a worker end records one net.worker_job span
/// per job (TrainJob received -> ClientUpdate sent) and sums the time its
/// worker sat blocked in recv().
class ProbedTransport final : public net::Transport {
 public:
  enum class End { Root, Worker };

  ProbedTransport(net::Transport& inner, End end, std::uint32_t track,
                  Tracer* tracer)
      : inner_(inner), end_(end), track_(track), tracer_(tracer) {}

  net::TransportStatus send(const net::Frame& frame,
                            int timeout_ms) override {
    const bool closes_job = end_ == End::Worker && job_open_ &&
                            frame.type == net::MessageType::ClientUpdate;
    auto status = net::TransportStatus::Closed;
    {
      Scope scope(end_ == End::Root ? tracer_ : nullptr, track_, "net.send");
      status = inner_.send(frame, timeout_ms);
    }
    if (status == net::TransportStatus::Ok) {
      ++frames_sent;
      bytes_sent += net::kFrameHeaderBytes + frame.payload.size();
    }
    if (closes_job) {
      tracer_->close(track_);
      job_open_ = false;
    }
    return status;
  }

  net::TransportStatus send_raw(std::span<const std::uint8_t> encoded,
                                int timeout_ms) override {
    Scope scope(end_ == End::Root ? tracer_ : nullptr, track_, "net.send");
    const auto status = inner_.send_raw(encoded, timeout_ms);
    if (status == net::TransportStatus::Ok) {
      ++frames_sent;
      bytes_sent += encoded.size();
    }
    return status;
  }

  net::TransportStatus recv(net::Frame* out, int timeout_ms) override {
    auto status = net::TransportStatus::Closed;
    const std::uint64_t begin = tracer_ ? now_ns() : 0;
    {
      Scope scope(end_ == End::Root ? tracer_ : nullptr, track_, "net.recv");
      status = inner_.recv(out, timeout_ms);
    }
    if (tracer_ && end_ == End::Worker) idle_ns += now_ns() - begin;
    if (status == net::TransportStatus::Ok) {
      ++frames_received;
      bytes_received += net::kFrameHeaderBytes + out->payload.size();
      if (tracer_ && end_ == End::Worker && !job_open_ &&
          out->type == net::MessageType::TrainJob) {
        tracer_->open(track_, "net.worker_job");
        job_open_ = true;
      }
    }
    return status;
  }

  void close() override { inner_.close(); }
  std::string peer() const override { return inner_.peer(); }

  std::size_t frames_sent = 0;
  std::size_t frames_received = 0;
  std::size_t bytes_sent = 0;
  std::size_t bytes_received = 0;
  std::uint64_t idle_ns = 0;  ///< worker end, traced: time blocked in recv

 private:
  net::Transport& inner_;
  End end_;
  std::uint32_t track_;
  Tracer* tracer_;
  bool job_open_ = false;
};

}  // namespace haccs::benchmark
