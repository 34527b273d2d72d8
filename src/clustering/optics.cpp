#include "src/clustering/optics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/common/error.hpp"
#include "src/obs/trace.hpp"

namespace haccs::clustering {

std::vector<double> OpticsResult::reachability_plot() const {
  std::vector<double> plot;
  plot.reserve(ordering.size());
  for (std::size_t p : ordering) plot.push_back(reachability[p]);
  return plot;
}

OpticsResult optics(const NeighborIndex& index, const OpticsConfig& config) {
  if (config.min_pts == 0) throw std::invalid_argument("optics: min_pts == 0");
  obs::Span span("optics", "clustering");
  const std::size_t n = index.size();
  OpticsResult result;
  result.ordering.reserve(n);
  result.reachability.assign(n, kUndefined);
  result.core_distance.assign(n, kUndefined);

  // Precompute core distances: distance to the (min_pts - 1)-th nearest
  // other point, defined only when that distance is within max_eps. A sparse
  // index with fewer than min_pts - 1 candidate neighbors answers +infinity,
  // which the isfinite guard maps to "not a core point".
  std::vector<double> scratch;
  for (std::size_t p = 0; p < n; ++p) {
    if (config.min_pts == 1) {
      result.core_distance[p] = 0.0;
      continue;
    }
    if (config.min_pts - 1 < n) {
      const double d = index.kth_nearest_distance(p, config.min_pts - 1, scratch);
      if (std::isfinite(d) && d <= config.max_eps) result.core_distance[p] = d;
    }
  }

  std::vector<bool> processed(n, false);
  // Seed list with linear min-extraction: O(n^2) overall, which is fine for
  // the client counts one shard of a federated scheduler sees (tens to
  // thousands; src/scale bounds shard sizes).
  std::vector<std::size_t> seeds;

  auto update_seeds = [&](std::size_t center) {
    const double core = result.core_distance[center];
    if (core == kUndefined) return;
    index.for_each_neighbor_within(
        center, config.max_eps, [&](std::size_t o, double d) {
          if (processed[o]) return;
          const double new_reach = std::max(core, d);
          if (new_reach < result.reachability[o]) {
            if (result.reachability[o] == kUndefined) seeds.push_back(o);
            result.reachability[o] = new_reach;
          }
        });
  };

  for (std::size_t start = 0; start < n; ++start) {
    if (processed[start]) continue;
    processed[start] = true;
    result.ordering.push_back(start);
    update_seeds(start);
    while (!seeds.empty()) {
      // Extract the seed with minimum reachability (ties: lowest id, for
      // deterministic ordering).
      std::size_t best = 0;
      for (std::size_t i = 1; i < seeds.size(); ++i) {
        const double ri = result.reachability[seeds[i]];
        const double rb = result.reachability[seeds[best]];
        if (ri < rb || (ri == rb && seeds[i] < seeds[best])) best = i;
      }
      const std::size_t q = seeds[best];
      seeds.erase(seeds.begin() + static_cast<std::ptrdiff_t>(best));
      if (processed[q]) continue;
      processed[q] = true;
      result.ordering.push_back(q);
      update_seeds(q);
    }
  }
  HACCS_CHECK(result.ordering.size() == n);
  return result;
}

OpticsResult optics(const DistanceMatrix& distances,
                    const OpticsConfig& config) {
  return optics(DenseNeighborIndex(distances), config);
}

std::vector<int> extract_dbscan(const OpticsResult& result, double eps,
                                std::size_t min_pts) {
  (void)min_pts;  // core distances already encode the min_pts used by optics()
  const std::size_t n = result.ordering.size();
  std::vector<int> labels(n, -1);
  int cluster = -1;
  int next_cluster = 0;
  for (std::size_t p : result.ordering) {
    if (result.reachability[p] > eps) {
      if (result.core_distance[p] <= eps) {
        cluster = next_cluster++;
        labels[p] = cluster;
      } else {
        labels[p] = -1;  // noise
        cluster = -1;
      }
    } else {
      // Reachable from the previous cluster at this eps. A reachable point
      // whose predecessor was noise can only occur after a component break,
      // which reachability > eps already covers; cluster >= 0 here.
      labels[p] = cluster >= 0 ? cluster : (cluster = next_cluster++);
    }
  }
  return labels;
}

namespace {

/// The ξ comparisons treat the virtual point past the end as +inf.
struct Plot {
  const std::vector<double>& r;
  std::size_t n;
  double at(std::size_t i) const { return i < n ? r[i] : kUndefined; }
  bool steep_down(std::size_t i, double xi) const {
    return at(i) * (1.0 - xi) >= at(i + 1);
  }
  bool down(std::size_t i) const { return at(i) >= at(i + 1); }
  bool steep_up(std::size_t i, double xi) const {
    return at(i) <= at(i + 1) * (1.0 - xi);
  }
  bool up(std::size_t i) const { return at(i) <= at(i + 1); }
};

struct SteepDownArea {
  std::size_t start;
  std::size_t end;
  double mib;  // maximum in between (since the area ended)
};

}  // namespace

std::vector<int> extract_xi(const OpticsResult& result, double xi,
                            std::size_t min_cluster_size) {
  if (xi <= 0.0 || xi >= 1.0) {
    throw std::invalid_argument("extract_xi: xi must be in (0, 1)");
  }
  const std::vector<double> plot = result.reachability_plot();
  const std::size_t n = plot.size();
  if (min_cluster_size < 2) min_cluster_size = 2;
  Plot P{plot, n};

  std::vector<SteepDownArea> sdas;
  std::vector<std::pair<std::size_t, std::size_t>> clusters;  // [s, e]

  auto filter_sdas = [&](double mib) {
    std::vector<SteepDownArea> kept;
    for (auto& d : sdas) {
      if (P.at(d.start) * (1.0 - xi) >= mib) {
        d.mib = std::max(d.mib, mib);
        kept.push_back(d);
      }
    }
    sdas = std::move(kept);
  };

  // Walks to the end of a steep region. Up to min_pts-ish non-steep (but
  // still monotone) points may interrupt a steep area; we allow
  // min_cluster_size interruptions, mirroring the original paper's MinPts.
  auto extend = [&](std::size_t i, auto&& is_steep, auto&& is_mono) {
    std::size_t end = i;
    std::size_t non_steep = 0;
    std::size_t j = i + 1;
    while (j + 1 <= n) {
      if (!is_mono(j)) break;
      if (is_steep(j)) {
        end = j;
        non_steep = 0;
      } else {
        ++non_steep;
        if (non_steep >= min_cluster_size) break;
      }
      ++j;
    }
    return end;
  };

  double mib = 0.0;
  std::size_t index = 0;
  while (index + 1 < n + 1) {  // compare against the virtual +inf at n
    mib = std::max(mib, P.at(index));
    if (P.steep_down(index, xi)) {
      filter_sdas(mib);
      const std::size_t d_start = index;
      const std::size_t d_end =
          extend(index, [&](std::size_t j) { return P.steep_down(j, xi); },
                 [&](std::size_t j) { return P.down(j); });
      sdas.push_back({d_start, d_end, 0.0});
      index = d_end + 1;
      mib = P.at(index);
    } else if (P.steep_up(index, xi)) {
      filter_sdas(mib);
      const std::size_t u_start = index;
      const std::size_t u_end =
          extend(index, [&](std::size_t j) { return P.steep_up(j, xi); },
                 [&](std::size_t j) { return P.up(j); });
      index = u_end + 1;
      mib = P.at(index);
      const double end_val = P.at(u_end + 1);
      for (const auto& d : sdas) {
        // Condition 4 of the ξ method: the in-between maximum must sit below
        // both boundary reachabilities (scaled by 1 - ξ).
        if (d.mib > std::min(P.at(d.start), end_val) * (1.0 - xi)) continue;
        std::size_t s = d.start;
        std::size_t e = u_end;
        if (P.at(d.start) * (1.0 - xi) >= end_val) {
          // Down side reaches deeper: trim the start to the first point
          // at or below the closing reachability.
          for (std::size_t j = d.start; j <= d.end; ++j) {
            if (P.at(j) <= end_val) {
              s = j;
              break;
            }
          }
        } else if (end_val * (1.0 - xi) >= P.at(d.start)) {
          // Up side reaches higher: trim the end to the last point at or
          // below the opening reachability.
          for (std::size_t j = u_end + 1; j-- > u_start;) {
            if (P.at(j) <= P.at(d.start)) {
              e = j;
              break;
            }
          }
        }
        if (s > d.end || e < u_start) continue;
        if (e + 1 - s < min_cluster_size) continue;
        clusters.emplace_back(s, e);
      }
    } else {
      ++index;
    }
  }

  // Leaf labeling: larger (outer) clusters first so inner clusters overwrite.
  std::sort(clusters.begin(), clusters.end(),
            [](const auto& a, const auto& b) {
              return (a.second - a.first) > (b.second - b.first);
            });
  std::vector<int> labels(n, -1);
  int next_label = 0;
  for (const auto& [s, e] : clusters) {
    const int label = next_label++;
    for (std::size_t i = s; i <= e && i < n; ++i) {
      labels[result.ordering[i]] = label;
    }
  }
  return labels;
}

namespace {

/// Mean silhouette coefficient of a labeling over the raw distances.
/// s(i) = (b_i - a_i) / max(a_i, b_i) with a_i the mean distance to the
/// point's own cluster and b_i the smallest mean distance to any other
/// cluster. Noise points contribute 0 — so a cut that "improves" its
/// clusters by declaring loose-but-real clusters noise pays for every point
/// it discards, and over-coarse cuts pay through inflated a_i.
double mean_silhouette(const std::vector<int>& labels,
                       const NeighborIndex& index) {
  const std::size_t n = labels.size();
  int max_label = -1;
  for (int l : labels) max_label = std::max(max_label, l);
  if (max_label < 1) return 0.0;  // fewer than two clusters: no structure
  const auto k = static_cast<std::size_t>(max_label) + 1;

  std::vector<std::size_t> cluster_size(k, 0);
  for (int l : labels) {
    if (l >= 0) ++cluster_size[static_cast<std::size_t>(l)];
  }

  double total = 0.0;
  std::vector<double> sum_to_cluster(k);
  for (std::size_t i = 0; i < n; ++i) {
    if (labels[i] < 0) continue;  // noise contributes 0
    std::fill(sum_to_cluster.begin(), sum_to_cluster.end(), 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i || labels[j] < 0) continue;
      sum_to_cluster[static_cast<std::size_t>(labels[j])] += index.distance(i, j);
    }
    const auto own = static_cast<std::size_t>(labels[i]);
    if (cluster_size[own] < 2) continue;  // singleton: silhouette 0
    const double a =
        sum_to_cluster[own] / static_cast<double>(cluster_size[own] - 1);
    if (!std::isfinite(a)) continue;  // estimator-less sparse pair
    double b = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < k; ++c) {
      if (c == own || cluster_size[c] == 0) continue;
      b = std::min(b, sum_to_cluster[c] / static_cast<double>(cluster_size[c]));
    }
    if (!std::isfinite(b)) continue;
    const double denom = std::max(a, b);
    if (denom > 0.0) total += (b - a) / denom;
  }
  return total / static_cast<double>(n);
}

}  // namespace

std::vector<int> extract_auto(const OpticsResult& result,
                              const NeighborIndex& index,
                              std::size_t min_pts) {
  // "One cluster" fallback: a cut above every finite reachability.
  auto one_cluster = [&](double max_finite) {
    return extract_dbscan(result, max_finite * (1.0 + 1e-9) + 1e-18, min_pts);
  };

  std::vector<double> finite;
  for (double r : result.reachability) {
    if (std::isfinite(r)) finite.push_back(r);
  }
  if (finite.size() < 4) {
    return one_cluster(finite.empty() ? 1.0 : *std::max_element(finite.begin(),
                                                                finite.end()));
  }
  std::sort(finite.begin(), finite.end());
  std::vector<double> gaps;
  gaps.reserve(finite.size() - 1);
  for (std::size_t i = 0; i + 1 < finite.size(); ++i) {
    gaps.push_back(finite[i + 1] - finite[i]);
  }
  std::vector<double> sorted_gaps = gaps;
  std::sort(sorted_gaps.begin(), sorted_gaps.end());
  const double median_gap = sorted_gaps[sorted_gaps.size() / 2];

  // Candidate cuts: gaps that (a) dominate the typical spacing — ruling out
  // smooth profiles like evenly-spaced chains — and (b) leave a substantial
  // fraction of reachability values on each side — ruling out "gaps"
  // produced by a single stray value at either end of a concentrated
  // profile, which is exactly what IID data yields.
  struct Candidate {
    double eps;
    double gap;
  };
  std::vector<Candidate> candidates;
  const auto n = static_cast<double>(finite.size());
  for (std::size_t i = 0; i + 1 < finite.size(); ++i) {
    const double frac_below = static_cast<double>(i + 1) / n;
    if (frac_below < 0.25 || frac_below > 0.92) continue;
    if (gaps[i] <= 3.0 * median_gap || gaps[i] <= 1e-12) continue;
    candidates.push_back({(finite[i] + finite[i + 1]) / 2.0, gaps[i]});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) { return a.gap > b.gap; });
  if (candidates.size() > 5) candidates.resize(5);

  // Score each candidate clustering by mean silhouette on the raw distances
  // and keep the best; accept a split only when the silhouette shows real
  // structure. IID data fails this (every pairwise distance is the same
  // sampling noise, silhouette ~0) and degrades to a single cluster, the
  // paper's §V-D1 expectation.
  constexpr double kMinSilhouette = 0.25;
  double best_score = kMinSilhouette;
  std::vector<int> best_labels;
  for (const auto& candidate : candidates) {
    auto labels = extract_dbscan(result, candidate.eps, min_pts);
    const double score = mean_silhouette(labels, index);
    if (score > best_score) {
      best_score = score;
      best_labels = std::move(labels);
    }
  }
  if (!best_labels.empty()) return best_labels;
  return one_cluster(finite.back());
}

}  // namespace haccs::clustering

