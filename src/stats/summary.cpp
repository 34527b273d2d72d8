#include "src/stats/summary.hpp"

#include <algorithm>
#include <stdexcept>

namespace haccs::stats {

std::string to_string(SummaryKind kind) {
  switch (kind) {
    case SummaryKind::Response: return "P(y)";
    case SummaryKind::Conditional: return "P(X|y)";
    case SummaryKind::Quantile: return "Q(X|y)";
  }
  throw std::invalid_argument("to_string: bad SummaryKind");
}

SummaryKind parse_summary_kind(const std::string& name) {
  if (name == "P(y)" || name == "response" || name == "py") {
    return SummaryKind::Response;
  }
  if (name == "P(X|y)" || name == "conditional" || name == "pxy") {
    return SummaryKind::Conditional;
  }
  if (name == "Q(X|y)" || name == "quantile" || name == "qxy") {
    return SummaryKind::Quantile;
  }
  throw std::invalid_argument("unknown summary kind: " + name);
}

ResponseSummary summarize_response(const data::Dataset& dataset) {
  ResponseSummary summary(dataset.num_classes());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    summary.label_counts.add_count(
        static_cast<std::size_t>(dataset.label(i)));
  }
  return summary;
}

ConditionalSummary summarize_conditional(
    const data::Dataset& dataset, const ConditionalSummaryConfig& config) {
  ConditionalSummary summary;
  summary.per_label.reserve(dataset.num_classes());
  for (std::size_t c = 0; c < dataset.num_classes(); ++c) {
    summary.per_label.emplace_back(config.bins, config.lo, config.hi);
  }
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    summary.per_label[static_cast<std::size_t>(dataset.label(i))].observe_all(
        dataset.features(i));
  }
  return summary;
}

QuantileSummary summarize_quantiles(const data::Dataset& dataset,
                                    const QuantileSummaryConfig& config) {
  if (config.num_quantiles == 0) {
    throw std::invalid_argument("summarize_quantiles: zero quantiles");
  }
  if (!(config.lo < config.hi)) {
    throw std::invalid_argument("summarize_quantiles: lo must be < hi");
  }
  QuantileSummary summary;
  summary.per_label.resize(dataset.num_classes());
  summary.mass.assign(dataset.num_classes(), 0.0);

  // Pool all feature values per label (clamped into range).
  std::vector<std::vector<double>> pooled(dataset.num_classes());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    auto& pool = pooled[static_cast<std::size_t>(dataset.label(i))];
    for (float v : dataset.features(i)) {
      pool.push_back(std::clamp(static_cast<double>(v), config.lo, config.hi));
    }
  }
  for (std::size_t c = 0; c < pooled.size(); ++c) {
    auto& pool = pooled[c];
    summary.mass[c] = static_cast<double>(pool.size());
    if (pool.empty()) continue;
    std::sort(pool.begin(), pool.end());
    auto& qs = summary.per_label[c];
    qs.reserve(config.num_quantiles);
    for (std::size_t q = 0; q < config.num_quantiles; ++q) {
      const double p = static_cast<double>(q + 1) /
                       static_cast<double>(config.num_quantiles + 1);
      const auto idx = static_cast<std::size_t>(
          p * static_cast<double>(pool.size() - 1));
      qs.push_back(pool[idx]);
    }
  }
  return summary;
}

double quantile_distance(const QuantileSummary& a, const QuantileSummary& b,
                         const QuantileSummaryConfig& config) {
  if (a.per_label.size() != b.per_label.size()) {
    throw std::invalid_argument("quantile_distance: arity mismatch");
  }
  const double range = config.hi - config.lo;
  double grand_total = 0.0;
  for (std::size_t c = 0; c < a.mass.size(); ++c) {
    grand_total += std::max(a.mass[c], 0.0) + std::max(b.mass[c], 0.0);
  }
  if (grand_total <= 0.0) return 0.0;
  double acc = 0.0;
  for (std::size_t c = 0; c < a.per_label.size(); ++c) {
    const double ma = std::max(a.mass[c], 0.0);
    const double mb = std::max(b.mass[c], 0.0);
    const double weight = (ma + mb) / grand_total;
    if (weight <= 0.0) continue;
    double d;
    if (!a.per_label[c].empty() && !b.per_label[c].empty()) {
      double diff = 0.0;
      for (std::size_t q = 0; q < a.per_label[c].size(); ++q) {
        diff += std::abs(a.per_label[c][q] - b.per_label[c][q]);
      }
      d = std::min(1.0, diff / (static_cast<double>(a.per_label[c].size()) *
                                range));
    } else {
      d = 1.0;  // label present on exactly one side
    }
    acc += weight * d;
  }
  return acc;
}

double distance(const ResponseSummary& a, const ResponseSummary& b) {
  return hellinger_distance(a.label_counts, b.label_counts);
}

double distance(const ConditionalSummary& a, const ConditionalSummary& b) {
  // Mass-weighted rather than flat average: the count histograms the client
  // transmits already encode each label's data mass, and weighting by it
  // stops barely-populated noise labels from dominating the comparison (see
  // weighted_hellinger_distance).
  return weighted_hellinger_distance(a.per_label, b.per_label);
}

std::size_t summary_size(const ResponseSummary& s) {
  return s.label_counts.bins();
}

std::size_t summary_size(const ConditionalSummary& s) {
  std::size_t total = 0;
  for (const auto& h : s.per_label) total += h.bins();
  return total;
}

}  // namespace haccs::stats
