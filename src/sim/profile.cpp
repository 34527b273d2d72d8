#include "src/sim/profile.hpp"

#include <span>
#include <stdexcept>

namespace haccs::sim {

std::pair<double, double> DeviceProfile::compute_multiplier_range(
    PerfCategory c) {
  switch (c) {
    case PerfCategory::Fast: return {1.0, 1.0};  // "No Delay"
    case PerfCategory::Medium: return {1.5, 2.0};
    case PerfCategory::Slow: return {2.0, 2.5};
    case PerfCategory::VerySlow: return {2.5, 3.0};
  }
  throw std::invalid_argument("compute_multiplier_range: bad category");
}

std::pair<double, double> DeviceProfile::bandwidth_range_mbps(PerfCategory c) {
  switch (c) {
    case PerfCategory::Fast: return {75.0, 100.0};
    case PerfCategory::Medium: return {50.0, 75.0};
    case PerfCategory::Slow: return {25.0, 50.0};
    case PerfCategory::VerySlow: return {1.0, 25.0};
  }
  throw std::invalid_argument("bandwidth_range_mbps: bad category");
}

DeviceProfile DeviceProfile::sample(Rng& rng) {
  DeviceProfile p;
  const std::span<const double> probs(kCategoryProbabilities, 4);
  p.compute_category = static_cast<PerfCategory>(rng.categorical(probs));
  p.bandwidth_category = static_cast<PerfCategory>(rng.categorical(probs));

  const auto [clo, chi] = compute_multiplier_range(p.compute_category);
  p.compute_multiplier = clo == chi ? clo : rng.uniform(clo, chi);

  const auto [blo, bhi] = bandwidth_range_mbps(p.bandwidth_category);
  p.bandwidth_mbps = rng.uniform(blo, bhi);

  p.network_latency_s = rng.uniform(0.020, 0.200);
  return p;
}

}  // namespace haccs::sim
