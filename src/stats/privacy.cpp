#include "src/stats/privacy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/common/name_table.hpp"

namespace haccs::stats {

namespace {

const Named<NoiseMechanism> kMechanismNames[] = {
    {NoiseMechanism::Laplace, "laplace"},
    {NoiseMechanism::Gaussian, "gaussian"}};

}  // namespace

std::string to_string(NoiseMechanism mechanism) {
  return name_of(kMechanismNames, mechanism);
}

NoiseMechanism parse_noise_mechanism(const std::string& name) {
  return parse_name(kMechanismNames, name, "noise mechanism");
}

std::string noise_mechanism_names() { return joined_names(kMechanismNames); }

PrivacyConfig privacy_for_budget(double epsilon, NoiseMechanism mechanism) {
  if (!std::isfinite(epsilon) || epsilon < 0.0) {
    throw std::invalid_argument(
        "DP budget epsilon must be finite and >= 0 (0 = no noise)");
  }
  return epsilon == 0.0 ? PrivacyConfig::none()
                        : PrivacyConfig{epsilon, mechanism};
}

PrivacyConfig PrivacyConfig::none() {
  return PrivacyConfig{std::numeric_limits<double>::infinity()};
}

bool PrivacyConfig::enabled() const {
  return std::isfinite(epsilon);
}

double gaussian_noise_stddev(double epsilon, double delta, double sensitivity) {
  if (epsilon <= 0.0 || delta <= 0.0 || delta >= 1.0) {
    throw std::invalid_argument("gaussian_noise_stddev: bad (epsilon, delta)");
  }
  return std::sqrt(2.0 * std::log(1.25 / delta)) * sensitivity / epsilon;
}

void privatize_histogram(Histogram& histogram, const PrivacyConfig& config,
                         Rng& rng) {
  if (!config.enabled()) return;
  if (config.mechanism == NoiseMechanism::Laplace) {
    privatize_histogram(histogram, config.epsilon, rng);
    return;
  }
  const double sigma =
      gaussian_noise_stddev(config.epsilon, config.delta, /*sensitivity=*/1.0);
  std::vector<double> counts(histogram.counts().begin(),
                             histogram.counts().end());
  for (double& c : counts) c += rng.normal(0.0, sigma);
  histogram.set_counts(std::move(counts));
  histogram.clamp_nonnegative();
}

QuantileSummary privatize(const QuantileSummary& summary,
                          const QuantileSummaryConfig& qconfig,
                          const PrivacyConfig& config, Rng& rng) {
  QuantileSummary out = summary;
  if (!config.enabled()) return out;
  const double range = qconfig.hi - qconfig.lo;
  for (std::size_t c = 0; c < out.per_label.size(); ++c) {
    auto& qs = out.per_label[c];
    if (qs.empty()) continue;
    // Clamped-range sensitivity: one value change moves a quantile by at
    // most range / mass.
    const double sensitivity = range / std::max(out.mass[c], 1.0);
    for (double& q : qs) {
      if (config.mechanism == NoiseMechanism::Laplace) {
        q += rng.laplace(0.0, sensitivity / config.epsilon);
      } else {
        q += rng.normal(0.0, gaussian_noise_stddev(config.epsilon,
                                                   config.delta, sensitivity));
      }
      q = std::clamp(q, qconfig.lo, qconfig.hi);
    }
    std::sort(qs.begin(), qs.end());  // restore monotonicity
  }
  return out;
}

void privatize_histogram(Histogram& histogram, double epsilon, Rng& rng) {
  if (epsilon <= 0.0) {
    throw std::invalid_argument("privatize_histogram: epsilon must be > 0");
  }
  if (!std::isfinite(epsilon)) return;
  std::vector<double> counts(histogram.counts().begin(),
                             histogram.counts().end());
  const double scale = 1.0 / epsilon;
  for (double& c : counts) c += rng.laplace(0.0, scale);
  histogram.set_counts(std::move(counts));
  histogram.clamp_nonnegative();
}

ResponseSummary privatize(const ResponseSummary& summary,
                          const PrivacyConfig& config, Rng& rng) {
  ResponseSummary out = summary;
  if (config.enabled()) {
    privatize_histogram(out.label_counts, config, rng);
  }
  return out;
}

ConditionalSummary privatize(const ConditionalSummary& summary,
                             const PrivacyConfig& config, Rng& rng) {
  ConditionalSummary out = summary;
  if (config.enabled()) {
    for (auto& hist : out.per_label) {
      privatize_histogram(hist, config, rng);
    }
  }
  return out;
}

double laplace_noise_variance(double epsilon) {
  if (epsilon <= 0.0) {
    throw std::invalid_argument("laplace_noise_variance: epsilon must be > 0");
  }
  return 2.0 / (epsilon * epsilon);
}

}  // namespace haccs::stats
