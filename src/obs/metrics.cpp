#include "src/obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "src/obs/obs.hpp"

namespace haccs::obs {

void Counter::inc(std::uint64_t n) {
  if (!metrics_enabled()) return;
  value_.fetch_add(n, std::memory_order_relaxed);
}

void Gauge::set(double v) {
  if (!metrics_enabled()) return;
  value_.store(v, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("Histogram: bounds must be sorted");
  }
}

void Histogram::observe(double v) {
  if (!metrics_enabled()) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add on atomic<double> via CAS: portable back to C++17 compilers.
  double current = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(current, current + v,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out;
  out.reserve(buckets_.size());
  for (const auto& b : buckets_) {
    out.push_back(b.load(std::memory_order_relaxed));
  }
  return out;
}

const std::vector<double>& default_ms_buckets() {
  static const std::vector<double> buckets = {
      0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 60000};
  return buckets;
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               const std::vector<double>& bounds) {
  std::lock_guard lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>(bounds.empty() ? default_ms_buckets()
                                                      : bounds);
  }
  return *slot;
}

std::string Registry::to_json() const {
  std::lock_guard lock(mutex_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":" + std::to_string(c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":" + json_number(g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":{\"bounds\":[";
    const auto& bounds = h->bounds();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      if (i > 0) out += ',';
      out += json_number(bounds[i]);
    }
    out += "],\"counts\":[";
    const auto counts = h->bucket_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(counts[i]);
    }
    out += "],\"sum\":" + json_number(h->sum()) +
           ",\"count\":" + std::to_string(h->count()) + '}';
  }
  out += "}}";
  return out;
}

std::string Registry::to_prometheus() const {
  std::lock_guard lock(mutex_);
  std::string out;
  // Metric names come from instrumentation sites and are already
  // identifier-shaped; sanitize defensively anyway, since Prometheus text
  // has no escaping for names.
  const auto sane = [](const std::string& name) {
    std::string fixed = name;
    for (char& c : fixed) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == ':';
      if (!ok) c = '_';
    }
    return fixed;
  };
  for (const auto& [name, c] : counters_) {
    const std::string full = "haccs_" + sane(name);
    out += "# TYPE " + full + " counter\n";
    out += full + " " + std::to_string(c->value()) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const std::string full = "haccs_" + sane(name);
    out += "# TYPE " + full + " gauge\n";
    out += full + " " + json_number(g->value()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const std::string full = "haccs_" + sane(name);
    out += "# TYPE " + full + " histogram\n";
    const auto& bounds = h->bounds();
    const auto counts = h->bucket_counts();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      cumulative += counts[i];
      out += full + "_bucket{le=\"" + json_number(bounds[i]) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    cumulative += counts.back();
    out += full + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) + "\n";
    out += full + "_sum " + json_number(h->sum()) + "\n";
    out += full + "_count " + std::to_string(h->count()) + "\n";
  }
  return out;
}

bool Registry::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string json = to_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  return ok;
}

void Registry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, c] : counters_) {
    c->value_.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, g] : gauges_) {
    g->value_.store(0.0, std::memory_order_relaxed);
  }
  for (auto& [name, h] : histograms_) {
    for (auto& b : h->buckets_) b.store(0, std::memory_order_relaxed);
    h->count_.store(0, std::memory_order_relaxed);
    h->sum_.store(0.0, std::memory_order_relaxed);
  }
}

}  // namespace haccs::obs
