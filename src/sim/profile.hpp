// System-heterogeneity device profiles (paper Table II).
//
// Each client draws a compute category and a bandwidth category
// independently with probabilities 60% / 20% / 15% / 5% (fast / medium /
// slow / very slow); numeric values are drawn uniformly over the category's
// interval. Network latency is 20-200 ms for every category, per the table.
#pragma once

#include <utility>

#include "src/common/rng.hpp"

namespace haccs::sim {

enum class PerfCategory : int { Fast = 0, Medium = 1, Slow = 2, VerySlow = 3 };

/// Category assignment probabilities, in enum order (paper §V-A).
inline constexpr double kCategoryProbabilities[4] = {0.60, 0.20, 0.15, 0.05};

struct DeviceProfile {
  PerfCategory compute_category = PerfCategory::Fast;
  PerfCategory bandwidth_category = PerfCategory::Fast;

  /// Multiplier on baseline compute time: 1.0 (fast), 1.5-2.0, 2.0-2.5,
  /// 2.5-3.0 per Table II.
  double compute_multiplier = 1.0;
  /// Link bandwidth in Mbps: 75-100, 50-75, 25-50, 1-25 per Table II.
  double bandwidth_mbps = 100.0;
  /// One-way network latency in seconds: uniform over 20-200 ms.
  double network_latency_s = 0.02;

  /// Draws a profile with the Table II category probabilities and intervals.
  static DeviceProfile sample(Rng& rng);

  /// The Table II interval bounds (exposed for tests / the micro bench).
  static std::pair<double, double> compute_multiplier_range(PerfCategory c);
  static std::pair<double, double> bandwidth_range_mbps(PerfCategory c);
};

}  // namespace haccs::sim
