#include "src/stats/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace haccs::stats {

Histogram::Histogram(std::size_t bins) : counts_(bins, 0.0) {
  if (bins == 0) throw std::invalid_argument("Histogram: zero bins");
}

Histogram::Histogram(std::size_t bins, double lo, double hi)
    : counts_(bins, 0.0), value_binned_(true), lo_(lo), hi_(hi) {
  if (bins == 0) throw std::invalid_argument("Histogram: zero bins");
  if (!(lo < hi)) throw std::invalid_argument("Histogram: lo must be < hi");
}

double Histogram::total() const {
  return std::accumulate(counts_.begin(), counts_.end(), 0.0);
}

void Histogram::add_count(std::size_t bin, double weight) {
  if (bin >= counts_.size()) {
    throw std::out_of_range("Histogram::add_count: bin out of range");
  }
  counts_[bin] += weight;
}

inline std::size_t Histogram::bin_of(double value) const {
  const double x = (value - lo_) / (hi_ - lo_) *
                   static_cast<double>(counts_.size());
  // Below the range (or NaN) clamps to the first bin, at or above it to the
  // last; in between, truncation is floor because x >= 0.
  if (!(x >= 0.0)) return 0;
  if (x >= static_cast<double>(counts_.size())) return counts_.size() - 1;
  return static_cast<std::size_t>(static_cast<std::ptrdiff_t>(x));
}

void Histogram::observe(double value, double weight) {
  if (!value_binned_) {
    throw std::logic_error("Histogram::observe requires a value-binned histogram");
  }
  counts_[bin_of(value)] += weight;
}

void Histogram::observe_all(std::span<const float> values) {
  if (!value_binned_) {
    throw std::logic_error("Histogram::observe requires a value-binned histogram");
  }
  for (float v : values) counts_[bin_of(static_cast<double>(v))] += 1.0;
}

void Histogram::set_counts(std::vector<double> counts) {
  if (counts.size() != counts_.size()) {
    throw std::invalid_argument("Histogram::set_counts: arity mismatch");
  }
  counts_ = std::move(counts);
}

std::vector<double> Histogram::normalized() const {
  std::vector<double> out(counts_.size(), 0.0);
  const double t = total();
  if (t <= 0.0) return out;  // zero vector by design (see header)
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out[i] = std::max(counts_[i], 0.0) / t;
  }
  return out;
}

void Histogram::clamp_nonnegative() {
  for (double& c : counts_) c = std::max(c, 0.0);
}

void sqrt_probabilities(std::span<const double> counts, std::span<double> out) {
  if (out.size() != counts.size()) {
    throw std::invalid_argument("sqrt_probabilities: arity mismatch");
  }
  double total = 0.0;
  for (double v : counts) total += std::max(v, 0.0);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    out[i] = std::sqrt(total > 0.0 ? std::max(counts[i], 0.0) / total : 0.0);
  }
}

double prepared_hellinger(std::span<const double> a,
                          std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("hellinger_distance: arity mismatch");
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc / 2.0);
}

double hellinger_distance(std::span<const double> p, std::span<const double> q) {
  if (p.size() != q.size()) {
    throw std::invalid_argument("hellinger_distance: arity mismatch");
  }
  thread_local std::vector<double> scratch;
  scratch.resize(2 * p.size());
  const std::span<double> sp(scratch.data(), p.size());
  const std::span<double> sq(scratch.data() + p.size(), q.size());
  sqrt_probabilities(p, sp);
  sqrt_probabilities(q, sq);
  return prepared_hellinger(sp, sq);
}

double hellinger_distance(const Histogram& a, const Histogram& b) {
  return hellinger_distance(a.counts(), b.counts());
}

double average_hellinger_distance(std::span<const Histogram> a,
                                  std::span<const Histogram> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("average_hellinger_distance: arity mismatch");
  }
  if (a.empty()) {
    throw std::invalid_argument("average_hellinger_distance: empty sets");
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += hellinger_distance(a[i], b[i]);
  }
  return acc / static_cast<double>(a.size());
}

double weighted_hellinger_distance(std::span<const Histogram> a,
                                   std::span<const Histogram> b) {
  return weighted_hellinger_distance(HellingerRows(a), HellingerRows(b));
}

HellingerRows::HellingerRows(std::span<const double> counts) {
  append(counts, std::max(std::accumulate(counts.begin(), counts.end(), 0.0),
                          0.0));
}

HellingerRows::HellingerRows(std::span<const Histogram> set) {
  mass_.reserve(set.size());
  offsets_.reserve(set.size() + 1);
  std::size_t width = 0;
  for (const auto& h : set) width += h.bins();
  values_.reserve(width);
  for (const auto& h : set) append(h.counts(), std::max(h.total(), 0.0));
}

void HellingerRows::append(std::span<const double> counts, double mass) {
  const std::size_t begin = values_.size();
  values_.resize(begin + counts.size());
  sqrt_probabilities(counts,
                     std::span<double>(values_).subspan(begin, counts.size()));
  mass_.push_back(mass);
  offsets_.push_back(values_.size());
}

double weighted_hellinger_distance(const HellingerRows& a,
                                   const HellingerRows& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("weighted_hellinger_distance: arity mismatch");
  }
  if (a.size() == 0) {
    throw std::invalid_argument("weighted_hellinger_distance: empty sets");
  }
  double grand_total = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    grand_total += a.mass(i) + b.mass(i);
  }
  if (grand_total <= 0.0) return 0.0;  // no data on either side
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double ta = a.mass(i);
    const double tb = b.mass(i);
    const double weight = (ta + tb) / grand_total;
    if (weight <= 0.0) continue;
    double d;
    if (ta > 0.0 && tb > 0.0) {
      d = prepared_hellinger(a.row(i), b.row(i));
    } else {
      d = 1.0;  // label present on exactly one side: maximally different
    }
    acc += weight * d;
  }
  return acc;
}

}  // namespace haccs::stats
