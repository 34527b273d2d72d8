// Metrics registry: process-global named counters, gauges, and fixed-bucket
// histograms, snapshotable to JSON.
//
// Instrumentation sites cache the reference once (registration takes a
// mutex; the instruments themselves are lock-free atomics):
//
//   static obs::Counter& rounds =
//       obs::Registry::global().counter("rounds_total");
//   rounds.inc();
//
// All mutating calls are gated on metrics_enabled(): with metrics off every
// site pays one relaxed atomic load and nothing else, and registry state
// stays frozen (verified by ObsDisabled tests). Registered instruments are
// never erased — Registry::reset() zeroes values in place — so cached
// references stay valid for the process lifetime.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace haccs::obs {

/// Monotonic counter.
class Counter {
 public:
  void inc(std::uint64_t n = 1);
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
 private:
  friend class Registry;  // reset()
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (e.g. queue depth).
class Gauge {
 public:
  void set(double v);
  double value() const { return value_.load(std::memory_order_relaxed); }
 private:
  friend class Registry;  // reset()
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are inclusive upper edges of the first
/// N buckets; one implicit overflow bucket catches everything above the
/// last edge. Observation is lock-free (relaxed atomics per bucket).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  std::vector<std::uint64_t> bucket_counts() const;

 private:
  friend class Registry;  // reset()
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default histogram edges for wall-clock milliseconds (sub-ms to minutes).
const std::vector<double>& default_ms_buckets();

class Registry {
 public:
  static Registry& global();

  /// Returns the named instrument, creating it on first use. The reference
  /// is stable for the process lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` applies only on first registration of `name`; defaults to
  /// default_ms_buckets().
  Histogram& histogram(const std::string& name,
                       const std::vector<double>& bounds = {});

  /// Snapshot of every instrument, keys sorted:
  /// {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string to_json() const;

  /// Prometheus text exposition (format 0.0.4): every instrument prefixed
  /// `haccs_`, one `# TYPE` line per family, histogram buckets cumulative
  /// with a `+Inf` edge plus `_sum`/`_count` rows.
  std::string to_prometheus() const;

  /// Writes to_json() to `path`; false on I/O failure.
  bool write(const std::string& path) const;

  /// Zeroes every instrument in place (tests); registrations survive.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace haccs::obs
