#include "src/testing/oracles.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "src/core/haccs_selector.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/selector_registry.hpp"
#include "src/fl/history.hpp"
#include "src/fl/net_driver.hpp"
#include "src/fl/protocol.hpp"
#include "src/net/wire.hpp"
#include "src/obs/obs.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/dropout.hpp"
#include "src/stats/privacy.hpp"
#include "src/tensor/ops.hpp"

namespace haccs::testing {

namespace {

/// Collects violations; at most one per oracle id so a systematic breakage
/// (e.g. every round's accounting off) reports once, not per round.
class Reporter {
 public:
  void fail(const std::string& oracle, const std::string& detail) {
    for (const auto& v : violations_) {
      if (v.oracle == oracle) return;
    }
    violations_.push_back({oracle, detail});
  }

  bool clean() const { return violations_.empty(); }
  std::vector<Violation> take() { return std::move(violations_); }

 private:
  std::vector<Violation> violations_;
};

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

bool close(double a, double b, double abs_tol, double rel_tol = 0.0) {
  return std::abs(a - b) <=
         abs_tol + rel_tol * std::max(std::abs(a), std::abs(b));
}

// ---------------------------------------------------------------------------
// Invariant family: summaries, distances, clustering

void check_summary_mass(const data::FederatedDataset& fed,
                        const ScenarioSpec& spec, Reporter& out) {
  const stats::ConditionalSummaryConfig ccfg;
  const stats::QuantileSummaryConfig qcfg;
  const stats::SummaryKind kind = build_haccs_config(spec).summary;
  for (std::size_t i = 0; i < fed.num_clients(); ++i) {
    const auto& train = fed.clients[i].train;
    const auto n = static_cast<double>(train.size());
    const double features = n * static_cast<double>(train.sample_size());

    const auto response = stats::summarize_response(train);
    if (!close(response.label_counts.total(), n, 1e-6)) {
      out.fail("summary_mass",
               "response histogram mass " +
                   fmt(response.label_counts.total()) + " != sample count " +
                   fmt(n) + " on client " + std::to_string(i));
      return;
    }

    if (kind == stats::SummaryKind::Conditional) {
      const auto cond = stats::summarize_conditional(train, ccfg);
      double mass = 0.0;
      for (const auto& h : cond.per_label) mass += h.total();
      if (!close(mass, features, 1e-6 * std::max(features, 1.0))) {
        out.fail("summary_mass",
                 "conditional histogram mass " + fmt(mass) +
                     " != feature count " + fmt(features) + " on client " +
                     std::to_string(i));
        return;
      }
    }
    if (kind == stats::SummaryKind::Quantile) {
      const auto quant = stats::summarize_quantiles(train, qcfg);
      const double mass =
          std::accumulate(quant.mass.begin(), quant.mass.end(), 0.0);
      if (!close(mass, features, 1e-6 * std::max(features, 1.0))) {
        out.fail("summary_mass",
                 "quantile sketch mass " + fmt(mass) + " != feature count " +
                     fmt(features) + " on client " + std::to_string(i));
        return;
      }
    }
  }
}

void check_distance_invariants(
    const std::vector<core::ClientSummary>& summaries,
    const ScenarioSpec& spec, Reporter& out) {
  const auto matrix = core::summary_distances(summaries, spec.distance);
  const std::size_t n = matrix.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (matrix.at(i, i) != 0.0) {
      out.fail("distance_bounds", "nonzero diagonal at " + std::to_string(i) +
                                      ": " + fmt(matrix.at(i, i)));
    }
    // Zero on identical summaries: a summary vs itself through the public
    // distance function (not just the matrix's fixed diagonal).
    const double self =
        core::ClientSummary::distance(summaries[i], summaries[i],
                                      spec.distance);
    if (!(self >= 0.0 && self <= 1e-9)) {
      out.fail("distance_identity",
               "distance(s, s) = " + fmt(self) + " for client " +
                   std::to_string(i));
    }
    // SymmetricKl is the one deliberately unbounded kind.
    const bool bounded = spec.distance != stats::DistanceKind::SymmetricKl;
    for (std::size_t j = i + 1; j < n; ++j) {
      const double d = matrix.at(i, j);
      if (!std::isfinite(d) || d < 0.0 ||
          (bounded && d > 1.0 + 1e-12)) {
        out.fail("distance_bounds",
                 "d(" + std::to_string(i) + "," + std::to_string(j) + ") = " +
                     fmt(d) + " outside [0, 1]");
      }
      if (matrix.at(j, i) != d) {
        out.fail("distance_symmetry",
                 "matrix asymmetric at (" + std::to_string(i) + "," +
                     std::to_string(j) + ")");
      }
      // The underlying distance function must itself be symmetric (the
      // matrix builder only evaluates i < j, so check the function too).
      const double swapped =
          core::ClientSummary::distance(summaries[j], summaries[i],
                                        spec.distance);
      if (!close(swapped, d, 1e-12)) {
        out.fail("distance_symmetry",
                 "distance(a,b) != distance(b,a): " + fmt(d) + " vs " +
                     fmt(swapped));
      }
    }
  }
}

/// Independent Hellinger recomputation against the production distance path
/// (which routes through stats::distribution_distance — the site of the
/// cluster-distance-l2 mutation). Deliberately naive: clamp, normalize,
/// paired square-root differences.
void check_distance_recompute(const std::vector<core::ClientSummary>& summaries,
                              const ScenarioSpec& spec, Reporter& out) {
  if (spec.distance != stats::DistanceKind::Hellinger) return;
  auto naive = [](std::span<const double> p, std::span<const double> q) {
    double pt = 0.0, qt = 0.0;
    for (double v : p) pt += std::max(v, 0.0);
    for (double v : q) qt += std::max(v, 0.0);
    double acc = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i) {
      const double pi = pt > 0.0 ? std::max(p[i], 0.0) / pt : 0.0;
      const double qi = qt > 0.0 ? std::max(q[i], 0.0) / qt : 0.0;
      const double d = std::sqrt(pi) - std::sqrt(qi);
      acc += d * d;
    }
    return std::sqrt(acc / 2.0);
  };
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    if (summaries[i].kind != stats::SummaryKind::Response) return;
    for (std::size_t j = i + 1; j < summaries.size(); ++j) {
      const double expected =
          naive(summaries[i].response.label_counts.counts(),
                summaries[j].response.label_counts.counts());
      const double got = core::ClientSummary::distance(
          summaries[i], summaries[j], spec.distance);
      if (!close(got, expected, 1e-9)) {
        out.fail("distance_recompute",
                 "d(" + std::to_string(i) + "," + std::to_string(j) + ") = " +
                     fmt(got) + " but independent Hellinger recomputation "
                     "gives " + fmt(expected));
        return;
      }
    }
  }
}

/// Cluster co-membership relation: same(i, j) iff both carry the same
/// non-noise label (noise points are singletons — never "same" as anyone).
bool same_cluster(const std::vector<int>& labels, std::size_t i,
                  std::size_t j) {
  return labels[i] >= 0 && labels[i] == labels[j];
}

void check_cluster_permutation_invariance(
    const std::vector<core::ClientSummary>& summaries,
    const core::HaccsConfig& haccs, const ScenarioSpec& spec, Reporter& out) {
  // The ξ steep-area extraction is genuinely order-sensitive: the OPTICS
  // ordering itself depends on tie-breaking by index, and ξ cuts on steep
  // areas of that ordering. Auto (largest-gap) and fixed-eps cuts depend
  // only on the reachability MST, which is permutation-invariant — the
  // oracle applies to those (verified over seeds 0..199; ξ reliably fails).
  if (haccs.algorithm == core::ClusterAlgorithm::Optics &&
      haccs.extraction == core::Extraction::Xi) {
    return;
  }
  const auto matrix = core::summary_distances(summaries, spec.distance);
  const auto labels = core::cluster_distances(matrix, haccs);

  // Permute the already-computed summaries (so DP noise, drawn per client,
  // rides along with its client) and re-cluster.
  const std::size_t n = summaries.size();
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(spec.seed ^ 0x9e3779b97f4a7c15ULL);
  rng.shuffle(perm);
  std::vector<core::ClientSummary> permuted;
  permuted.reserve(n);
  for (std::size_t p : perm) permuted.push_back(summaries[p]);
  const auto pmatrix = core::summary_distances(permuted, spec.distance);
  // position_of[i]: where client i landed in the permuted order.
  std::vector<std::size_t> position_of(n);
  for (std::size_t pos = 0; pos < n; ++pos) position_of[perm[pos]] = pos;
  const auto plabels = core::cluster_distances(pmatrix, haccs);

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const bool orig = same_cluster(labels, i, j);
      const bool permd =
          same_cluster(plabels, position_of[i], position_of[j]);
      if (orig != permd) {
        out.fail("cluster_permutation",
                 "clients " + std::to_string(i) + "," + std::to_string(j) +
                     " co-clustered=" + (orig ? "true" : "false") +
                     " originally but " + (permd ? "true" : "false") +
                     " after permuting client order");
        return;
      }
    }
  }
}

/// Scale-vs-exact differential (DESIGN.md §5h). With one shard covering
/// every client and a dense exact cutoff, the scale pipeline routes the
/// very same exact distances through the NeighborIndex seam and the
/// identity merge — its labels must be *identical* to the legacy dense
/// path, for every summary kind, extraction, and DP setting the fuzzer
/// generates. A genuinely sharded run may legitimately differ on arbitrary
/// fuzz data (the merge clusters centroids, not members), so multi-shard
/// output is checked for well-formedness and determinism instead.
void check_scale_differential(
    const std::vector<core::ClientSummary>& summaries,
    const core::HaccsConfig& haccs, Reporter& out) {
  const std::size_t n = summaries.size();
  const auto exact_labels = core::cluster_distances(
      core::summary_distances(summaries, haccs.response_distance), haccs);

  core::HaccsConfig scaled = haccs;
  scaled.scale.enabled = true;
  scaled.scale.shard_size = n + 1;    // single shard: identity merge
  scaled.scale.exact_cutoff = n + 1;  // dense exact distances
  const auto single = core::cluster_summaries_scaled(summaries, scaled);
  if (single != exact_labels) {
    for (std::size_t i = 0; i < n; ++i) {
      if (single[i] != exact_labels[i]) {
        out.fail("diff_scale",
                 "single-shard scale labels diverge from the exact path at "
                 "client " + std::to_string(i) + ": " +
                     std::to_string(single[i]) + " vs " +
                     std::to_string(exact_labels[i]));
        break;
      }
    }
    return;
  }

  // Sharded + ANN-pruned run: labels must be well-formed and the pipeline
  // deterministic (same input, same output — shard parallelism must not
  // leak scheduling order into the result).
  scaled.scale.shard_size = std::max<std::size_t>(2, n / 3);
  scaled.scale.exact_cutoff = std::max<std::size_t>(2, n / 6);
  const auto sharded = core::cluster_summaries_scaled(summaries, scaled);
  if (sharded.size() != n) {
    out.fail("diff_scale", "sharded label arity " +
                               std::to_string(sharded.size()) + " != " +
                               std::to_string(n));
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (sharded[i] < -1 || sharded[i] >= static_cast<int>(n)) {
      out.fail("diff_scale", "sharded label out of range on client " +
                                 std::to_string(i) + ": " +
                                 std::to_string(sharded[i]));
      return;
    }
  }
  const auto replay = core::cluster_summaries_scaled(summaries, scaled);
  if (replay != sharded) {
    out.fail("diff_scale",
             "sharded clustering is nondeterministic: two runs on identical "
             "input disagree");
  }
}

void check_dp_nonnegative(const std::vector<core::ClientSummary>& summaries,
                          Reporter& out) {
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    const auto& s = summaries[i];
    if (s.kind == stats::SummaryKind::Response) {
      for (double c : s.response.label_counts.counts()) {
        if (c < 0.0 || !std::isfinite(c)) {
          out.fail("dp_nonnegative", "negative/non-finite noised bin " +
                                         fmt(c) + " on client " +
                                         std::to_string(i));
          return;
        }
      }
    } else if (s.kind == stats::SummaryKind::Conditional) {
      for (const auto& h : s.conditional.per_label) {
        for (double c : h.counts()) {
          if (c < 0.0 || !std::isfinite(c)) {
            out.fail("dp_nonnegative", "negative/non-finite noised bin " +
                                           fmt(c) + " on client " +
                                           std::to_string(i));
            return;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Invariant family: Eq. 7 weights and Weighted-SRSWR sampling

/// Straightforward independent reimplementation of Eq. 6/7 (kept deliberately
/// naive — its whole value is being a second opinion on the selector's).
std::vector<double> eq7_reference(
    const core::HaccsSelector& selector, double rho,
    const std::vector<fl::ClientRuntimeInfo>& clients) {
  const auto& clusters = selector.clusters();
  const std::size_t k = clusters.size();
  std::vector<double> avg_loss(k, 0.0), avg_latency(k, 0.0);
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t member : clusters[c]) {
      avg_loss[c] += clients[member].last_loss;
      avg_latency[c] += clients[member].latency_s;
    }
    avg_loss[c] /= static_cast<double>(clusters[c].size());
    avg_latency[c] /= static_cast<double>(clusters[c].size());
  }
  const double lat_max =
      *std::max_element(avg_latency.begin(), avg_latency.end());
  const double loss_total =
      std::accumulate(avg_loss.begin(), avg_loss.end(), 0.0);
  std::vector<double> weights(k, 0.0);
  for (std::size_t c = 0; c < k; ++c) {
    const double tau = lat_max > 0.0 ? 1.0 - avg_latency[c] / lat_max : 0.0;
    const double acl = loss_total > 0.0 ? avg_loss[c] / loss_total : 0.0;
    weights[c] = rho * tau + (1.0 - rho) * acl;
  }
  if (std::accumulate(weights.begin(), weights.end(), 0.0) <= 0.0) {
    std::fill(weights.begin(), weights.end(), 1.0);
  }
  return weights;
}

void check_eq7_and_srswr(const ScenarioSpec& spec,
                         const data::FederatedDataset& fed,
                         const std::vector<fl::ClientRuntimeInfo>& view,
                         const OracleOptions& options, Reporter& out) {
  const auto haccs = build_haccs_config(spec);
  core::HaccsSelector selector(fed, haccs);
  const auto weights = selector.cluster_weights(view);
  const auto expected = eq7_reference(selector, spec.rho, view);

  if (weights.size() != selector.num_clusters()) {
    out.fail("eq7_weights", "weight count " + std::to_string(weights.size()) +
                                " != cluster count " +
                                std::to_string(selector.num_clusters()));
    return;
  }
  double total = 0.0;
  for (std::size_t c = 0; c < weights.size(); ++c) {
    if (!std::isfinite(weights[c]) || weights[c] < 0.0) {
      out.fail("eq7_weights", "weight[" + std::to_string(c) + "] = " +
                                  fmt(weights[c]) + " (must be finite, >= 0)");
      return;
    }
    if (!close(weights[c], expected[c], 1e-12, 1e-12)) {
      out.fail("eq7_weights",
               "weight[" + std::to_string(c) + "] = " + fmt(weights[c]) +
                   " but independent Eq. 7 recomputation gives " +
                   fmt(expected[c]));
      return;
    }
    total += weights[c];
  }
  if (!(total > 0.0)) {
    out.fail("eq7_weights", "weights sum to " + fmt(total));
    return;
  }
  // The sampling distribution θ_c = w_c / Σw must be a distribution.
  double theta_sum = 0.0;
  for (double w : weights) theta_sum += w / total;
  if (!close(theta_sum, 1.0, 1e-9)) {
    out.fail("eq7_weights", "normalized θ sums to " + fmt(theta_sum));
    return;
  }

  // Empirical Weighted-SRSWR check: single-slot selections land in cluster c
  // with frequency θ_c. Uses the selector's own RNG path end-to-end, so a
  // bug anywhere between Eq. 7 and the categorical draw shows up here.
  const std::size_t draws = options.srswr_draws;
  if (draws == 0) return;
  std::vector<std::size_t> hits(weights.size(), 0);
  Rng rng(spec.seed ^ 0x5b5b5b5bULL);
  for (std::size_t d = 0; d < draws; ++d) {
    const auto picked = selector.select(1, view, 0, rng);
    if (picked.size() != 1) {
      out.fail("srswr_frequency",
               "select(1) returned " + std::to_string(picked.size()) +
                   " clients");
      return;
    }
    hits[static_cast<std::size_t>(selector.cluster_of()[picked[0]])]++;
  }
  for (std::size_t c = 0; c < weights.size(); ++c) {
    const double theta = weights[c] / total;
    const double freq = static_cast<double>(hits[c]) /
                        static_cast<double>(draws);
    const double sigma =
        std::sqrt(theta * (1.0 - theta) / static_cast<double>(draws));
    const double tolerance = 5.0 * sigma + 2.0 / static_cast<double>(draws);
    if (std::abs(freq - theta) > tolerance) {
      out.fail("srswr_frequency",
               "cluster " + std::to_string(c) + " sampled at frequency " +
                   fmt(freq) + " but θ = " + fmt(theta) + " (tolerance " +
                   fmt(tolerance) + " over " + std::to_string(draws) +
                   " draws)");
      return;
    }
  }
}

void check_selection_contract(const ScenarioSpec& spec,
                              const data::FederatedDataset& fed,
                              const std::vector<fl::ClientRuntimeInfo>& view,
                              Reporter& out) {
  auto selector = build_selector(spec, fed);
  selector->initialize(view);
  Rng rng(spec.seed ^ 0xc0ffeeULL);
  const auto picked = selector->select(spec.per_round, view, 0, rng);
  if (picked.size() > spec.per_round) {
    out.fail("selection_contract", "selector returned " +
                                       std::to_string(picked.size()) +
                                       " > k = " +
                                       std::to_string(spec.per_round));
  }
  std::vector<std::size_t> sorted(picked);
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    out.fail("selection_contract", "selector returned duplicate client ids");
  }
  for (std::size_t id : picked) {
    if (id >= view.size()) {
      out.fail("selection_contract",
               "selector returned out-of-range id " + std::to_string(id));
    }
  }
  // Metamorphic edge: nobody available -> nobody selected.
  auto nobody = view;
  for (auto& c : nobody) c.available = false;
  auto fresh = build_selector(spec, fed);
  fresh->initialize(view);
  const auto empty = fresh->select(spec.per_round, nobody, 0, rng);
  if (!empty.empty()) {
    out.fail("selection_contract",
             "selector picked " + std::to_string(empty.size()) +
                 " clients from an all-unavailable view");
  }
}

/// Validates one selection against a view: distinct, in-range, available,
/// and exactly min(k, #available). Every selector in the zoo fills to the
/// availability bound, so a short selection means probability mass leaked.
bool selection_fills(const std::vector<std::size_t>& picked, std::size_t k,
                     const std::vector<fl::ClientRuntimeInfo>& view,
                     const std::string& where, Reporter& out) {
  std::size_t avail = 0;
  for (const auto& c : view) avail += c.available ? 1 : 0;
  const std::size_t expected = std::min(k, avail);
  if (picked.size() != expected) {
    out.fail("selection_mass",
             where + ": selector returned " + std::to_string(picked.size()) +
                 " clients but min(k, available) = " +
                 std::to_string(expected));
    return false;
  }
  std::vector<std::size_t> sorted(picked);
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    out.fail("selection_mass", where + ": duplicate client ids");
    return false;
  }
  for (std::size_t id : picked) {
    if (id >= view.size()) {
      out.fail("selection_mass",
               where + ": out-of-range id " + std::to_string(id));
      return false;
    }
    if (!view[id].available) {
      out.fail("selection_mass",
               where + ": selected unavailable client " + std::to_string(id));
      return false;
    }
  }
  return true;
}

/// Selector-generic: across repeated draws — full availability and seeded
/// partial-availability masks — every selection must carry exactly
/// min(k, #available) distinct, in-range, available clients.
void check_selection_mass(const ScenarioSpec& spec,
                          const data::FederatedDataset& fed,
                          const std::vector<fl::ClientRuntimeInfo>& view,
                          Reporter& out) {
  auto selector = build_selector(spec, fed);
  selector->initialize(view);
  Rng rng(spec.seed ^ 0x5e1ec7103a55ULL);
  for (std::size_t t = 0; t < 40; ++t) {
    const auto picked =
        selector->select(spec.per_round, view, t % spec.rounds, rng);
    if (!selection_fills(picked, spec.per_round, view,
                         "full view, draw " + std::to_string(t), out)) {
      return;
    }
  }
  // Partial availability: each client up with probability 0.6 (at least one
  // forced up so the expected fill is never vacuously zero).
  Rng mask_rng(spec.seed ^ 0xab1e5ULL);
  for (std::size_t t = 0; t < 10; ++t) {
    auto masked = view;
    std::size_t avail = 0;
    for (auto& c : masked) {
      c.available = mask_rng.bernoulli(0.6);
      avail += c.available ? 1 : 0;
    }
    if (avail == 0) masked[t % masked.size()].available = true;
    const auto picked =
        selector->select(spec.per_round, masked, t % spec.rounds, rng);
    if (!selection_fills(picked, spec.per_round, masked,
                         "partial mask " + std::to_string(t), out)) {
      return;
    }
  }
}

/// Selector-generic: after a client escalates to Crash and drops out of the
/// availability mask (as a tripped circuit breaker would make it), no
/// selector may keep dispatching to it — and the survivors must still fill
/// the round.
void check_dead_client(const ScenarioSpec& spec,
                       const data::FederatedDataset& fed,
                       const std::vector<fl::ClientRuntimeInfo>& view,
                       Reporter& out) {
  if (view.size() < 2) return;
  auto selector = build_selector(spec, fed);
  selector->initialize(view);
  const std::size_t victim = spec.seed % view.size();
  for (std::size_t r = 0; r < 3; ++r) {
    selector->report_failure(victim, r, fl::FailureKind::Crash);
  }
  auto masked = view;
  masked[victim].available = false;
  Rng rng(spec.seed ^ 0xdeadc11e47ULL);
  const std::size_t expected = std::min(spec.per_round, view.size() - 1);
  for (std::size_t t = 0; t < 30; ++t) {
    const auto picked =
        selector->select(spec.per_round, masked, t % spec.rounds, rng);
    for (std::size_t id : picked) {
      if (id == victim) {
        out.fail("dead_client",
                 "selector dispatched to crashed, unavailable client " +
                     std::to_string(victim));
        return;
      }
    }
    if (picked.size() != expected) {
      out.fail("dead_client",
               "with one dead client the selector returned " +
                   std::to_string(picked.size()) + " but min(k, n-1) = " +
                   std::to_string(expected));
      return;
    }
  }
}

/// Selector-generic crash-resume contract: save_state() after some traffic,
/// load into a fresh selector, and (for stateful selectors) demand
/// byte-identical re-serialization plus identical subsequent selections
/// under identically seeded RNGs. Foreign blobs must be rejected.
void check_state_roundtrip(const ScenarioSpec& spec,
                           const data::FederatedDataset& fed,
                           const std::vector<fl::ClientRuntimeInfo>& view,
                           Reporter& out) {
  auto a = build_selector(spec, fed);
  a->initialize(view);
  Rng drive(spec.seed ^ 0x57a7e5a3eULL);
  for (std::size_t e = 0; e < 3; ++e) {
    const auto picked = a->select(spec.per_round, view, e, drive);
    for (std::size_t id : picked) {
      if (drive.bernoulli(0.2)) {
        a->report_failure(id, e, fl::FailureKind::Timeout);
      } else {
        a->report_result(id, 1.0 + 0.01 * static_cast<double>(id), e);
      }
    }
  }
  const auto blob = a->save_state();
  auto b = build_selector(spec, fed);
  b->initialize(view);
  // Stateless selectors (empty blob, no-op load) pass trivially; they make
  // no resume promise beyond "fresh start".
  if (blob.empty()) return;
  b->load_state(blob);
  const auto reblob = b->save_state();
  if (reblob != blob) {
    out.fail("state_roundtrip",
             "save(load(blob)) is not byte-identical to blob (" +
                 std::to_string(reblob.size()) + " vs " +
                 std::to_string(blob.size()) + " bytes)");
    return;
  }
  for (std::size_t e = 3; e < 6; ++e) {
    Rng ra(spec.seed ^ (0xab5e1ULL + e));
    Rng rb(spec.seed ^ (0xab5e1ULL + e));
    const auto pa = a->select(spec.per_round, view, e, ra);
    const auto pb = b->select(spec.per_round, view, e, rb);
    if (pa != pb) {
      out.fail("state_roundtrip",
               "resumed selector diverges from the original at epoch " +
                   std::to_string(e));
      return;
    }
  }
  net::WireWriter foreign;
  foreign.string("NotASelectorState");
  foreign.u16(1);
  bool threw = false;
  try {
    b->load_state(foreign.take());
  } catch (const std::exception&) {
    threw = true;
  }
  if (!threw) {
    out.fail("state_roundtrip", "selector accepted a foreign state blob");
  }
}

/// HACCS-specific: report_failure must leave a multiplicative penalty > 1 on
/// the failed client (the drop-failure-penalty mutation erases it, so the
/// selector keeps re-dispatching crashing devices at full priority).
void check_failure_penalty(const ScenarioSpec& spec,
                           const data::FederatedDataset& fed, Reporter& out) {
  const auto haccs = build_haccs_config(spec);
  if (haccs.failure_penalty <= 1.0) return;  // fault-unaware ablation
  core::HaccsSelector selector(fed, haccs);
  selector.report_failure(0, 0, fl::FailureKind::Crash);
  const double penalty = selector.failure_penalty_of(0);
  if (!(penalty > 1.0)) {
    out.fail("failure_penalty",
             "after a Crash report the failure penalty is " + fmt(penalty) +
                 " (expected > 1: the selector would keep re-dispatching a "
                 "crashing device at full priority)");
  }
}

// ---------------------------------------------------------------------------
// Invariant family: RoundRecord conservation

void check_round_accounting(const fl::TrainingHistory& history,
                            const ScenarioSpec& spec, std::size_t param_count,
                            Reporter& out) {
  const auto engine = build_engine_config(spec);
  std::size_t dispatch_target = engine.clients_per_round;
  if (engine.overcommit > 0.0) {
    dispatch_target = std::min<std::size_t>(
        static_cast<std::size_t>(
            std::ceil(static_cast<double>(engine.clients_per_round) *
                      (1.0 + engine.overcommit))),
        spec.clients);
  }
  double prev_time = 0.0;
  for (const auto& r : history.records()) {
    const std::string where = " (epoch " + std::to_string(r.epoch) + ")";
    // Conservation: every dispatched client ends in exactly one bucket.
    const std::size_t accounted = r.selected.size() + r.crashed.size() +
                                  r.late.size() + r.rejected.size();
    if (accounted != r.dispatched) {
      out.fail("round_accounting",
               "dispatched " + std::to_string(r.dispatched) + " != " +
                   std::to_string(r.selected.size()) + " aggregated + " +
                   std::to_string(r.wasted()) + " wasted" + where);
      return;
    }
    if (r.dispatched > dispatch_target) {
      out.fail("round_accounting",
               "dispatched " + std::to_string(r.dispatched) +
                   " exceeds over-selection target " +
                   std::to_string(dispatch_target) + where);
      return;
    }
    std::vector<std::size_t> all;
    all.insert(all.end(), r.selected.begin(), r.selected.end());
    all.insert(all.end(), r.crashed.begin(), r.crashed.end());
    all.insert(all.end(), r.late.begin(), r.late.end());
    all.insert(all.end(), r.rejected.begin(), r.rejected.end());
    std::sort(all.begin(), all.end());
    if (std::adjacent_find(all.begin(), all.end()) != all.end()) {
      out.fail("round_accounting",
               "a client appears in two outcome buckets" + where);
      return;
    }
    if (!all.empty() && all.back() >= spec.clients) {
      out.fail("round_accounting",
               "out-of-range client id " + std::to_string(all.back()) + where);
      return;
    }

    // Wire-byte conservation against the codec pricing: every dispatched
    // client got a TrainJob frame; every arrived update (aggregated or
    // rejected — crashed and late clients never deliver) is one
    // ClientUpdate frame.
    const std::size_t downlink =
        r.dispatched * fl::train_job_frame_bytes(param_count);
    if (r.downlink_bytes != downlink) {
      out.fail("byte_accounting",
               "downlink_bytes " + std::to_string(r.downlink_bytes) +
                   " != dispatched x frame = " + std::to_string(downlink) +
                   where);
      return;
    }
    const std::size_t arrived = r.selected.size() + r.rejected.size();
    const std::size_t uplink =
        arrived * fl::update_frame_bytes(param_count, engine.compression);
    if (r.uplink_bytes != uplink) {
      out.fail("byte_accounting",
               "uplink_bytes " + std::to_string(r.uplink_bytes) +
                   " != arrived x frame = " + std::to_string(uplink) + where);
      return;
    }

    // Deadline semantics: the server never waits past the deadline.
    if (r.deadline_s > 0.0 && r.round_duration_s > r.deadline_s + 1e-12) {
      out.fail("deadline", "round lasted " + fmt(r.round_duration_s) +
                               "s past deadline " + fmt(r.deadline_s) + "s" +
                               where);
      return;
    }
    // The simulated clock accumulates round durations exactly (the engine
    // performs literally this addition).
    if (r.sim_time_s != prev_time + r.round_duration_s) {
      out.fail("sim_clock", "sim_time " + fmt(r.sim_time_s) + " != " +
                                fmt(prev_time) + " + " +
                                fmt(r.round_duration_s) + where);
      return;
    }
    prev_time = r.sim_time_s;

    if (!(r.global_accuracy >= 0.0 && r.global_accuracy <= 1.0)) {
      out.fail("eval_bounds",
               "accuracy " + fmt(r.global_accuracy) + " outside [0, 1]" +
                   where);
      return;
    }
    if (!std::isfinite(r.global_loss) || r.global_loss < 0.0) {
      out.fail("eval_bounds", "loss " + fmt(r.global_loss) + where);
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Differential family

struct RunArtifacts {
  fl::TrainingHistory history;
  std::vector<float> final_parameters;
};

RunArtifacts run_with(const ScenarioSpec& spec,
                      const data::FederatedDataset& fed,
                      std::function<void(std::size_t)> on_epoch_begin,
                      fl::RoundDispatcher* dispatcher) {
  auto engine = build_engine_config(spec);
  engine.dispatcher = dispatcher;
  engine.on_epoch_begin = std::move(on_epoch_begin);
  fl::FederatedTrainer trainer(fed, build_model_factory(spec, fed), engine);
  auto selector = build_selector(spec, fed);
  const auto schedule = build_availability(spec);
  RunArtifacts artifacts;
  artifacts.history = trainer.run(*selector, *schedule);
  artifacts.final_parameters = trainer.final_parameters();
  return artifacts;
}

/// Runs directly on `fed`, drifting it in place when the spec says so. The
/// caller owns the aliasing: anything else reading `fed` during the run (a
/// loopback worker fleet) sees the drifted data too — which is exactly what
/// the transported-dispatch differential needs.
RunArtifacts run_scenario_mut(const ScenarioSpec& spec,
                              data::FederatedDataset& fed,
                              fl::RoundDispatcher* dispatcher = nullptr) {
  return run_with(spec, fed, build_drift_hook(spec, fed), dispatcher);
}

RunArtifacts run_scenario(const ScenarioSpec& spec,
                          const data::FederatedDataset& fed,
                          fl::RoundDispatcher* dispatcher = nullptr) {
  if (spec.hostile == sim::HostileKind::Drift) {
    // Drift mutates the dataset mid-run; every run gets a FRESH copy of the
    // pristine dataset so the (seeded, deterministic) drift replays
    // identically instead of compounding across runs.
    data::FederatedDataset working = fed;
    return run_scenario_mut(spec, working, dispatcher);
  }
  return run_with(spec, fed, {}, dispatcher);
}

std::string record_json_no_phase(const fl::RoundRecord& record) {
  fl::RoundRecord copy = record;
  copy.phase = fl::PhaseTimings{};
  return fl::round_event_json("sync", copy);
}

void compare_histories(const fl::TrainingHistory& a,
                       const fl::TrainingHistory& b,
                       const std::string& oracle, const std::string& what,
                       Reporter& out) {
  if (a.records().size() != b.records().size()) {
    out.fail(oracle, what + ": " + std::to_string(a.records().size()) +
                         " vs " + std::to_string(b.records().size()) +
                         " rounds");
    return;
  }
  for (std::size_t i = 0; i < a.records().size(); ++i) {
    const std::string lhs = record_json_no_phase(a.records()[i]);
    const std::string rhs = record_json_no_phase(b.records()[i]);
    if (lhs != rhs) {
      out.fail(oracle, what + " diverges at round " + std::to_string(i) +
                           ": " + lhs + " vs " + rhs);
      return;
    }
  }
}

void check_loopback_differential(const ScenarioSpec& spec,
                                 const data::FederatedDataset& fed,
                                 const RunArtifacts& baseline, Reporter& out) {
  const auto engine = build_engine_config(spec);
  // Drift note: workers hold a reference to the dataset they were built on,
  // so engine and fleet must share ONE working copy — the on_epoch_begin
  // drift (applied between rounds, while workers idle) then reaches both
  // sides and the transported run stays bit-identical to the baseline.
  data::FederatedDataset working = fed;
  fl::LoopbackCluster cluster(working, build_model_factory(spec, working),
                              spec.workers);
  fl::TransportDispatcherConfig dcfg;
  dcfg.work = fl::local_work_config(engine);
  dcfg.recv_timeout_ms = 60000;
  fl::TransportDispatcher dispatcher(cluster.server_transports(), dcfg);
  const auto transported = run_scenario_mut(spec, working, &dispatcher);
  compare_histories(baseline.history, transported.history,
                    "diff_loopback_dispatch",
                    "in-process vs loopback-transported run", out);
}

void check_chaos_liveness(const ScenarioSpec& spec,
                          const data::FederatedDataset& fed, Reporter& out) {
  // Under an actively hostile wire the transported run legitimately diverges
  // from the in-process baseline (lost updates become Crash/Timeout/Corrupt
  // failures), so the bit-identity differential does not apply. What the
  // serving mode guarantees instead: the run COMPLETES — every round
  // commits, no hang — and the damage is fully attributed through the
  // normal failure buckets, so every RoundRecord conservation invariant
  // still holds on the chaotic history.
  const auto engine = build_engine_config(spec);
  fl::LoopbackClusterOptions copts;
  copts.chaos = build_chaos_options(spec);
  copts.worker_heartbeat_interval_ms = 25;
  // Shared working copy for the same drift-aliasing reason as the loopback
  // differential (workers reference the dataset they were built on).
  data::FederatedDataset working = fed;
  fl::LoopbackCluster cluster(working, build_model_factory(spec, working),
                              spec.workers, copts);
  fl::TransportDispatcherConfig dcfg;
  dcfg.work = fl::local_work_config(engine);
  // Whole-round budget: bounds any hang. A lost frame can leave a round
  // short of quorum while its worker keeps heartbeating, so the round waits
  // out the whole budget; a fuzz scenario's round trains in well under a
  // second, so a few seconds, well above the heartbeat deadline, is enough.
  dcfg.recv_timeout_ms = 5000;
  dcfg.heartbeat_timeout_ms = 2000;
  dcfg.quorum_fraction = 0.5;
  dcfg.quorum_grace_ms = 50;
  fl::TransportDispatcher dispatcher(cluster.server_transports(), dcfg);
  const auto chaotic = run_scenario_mut(spec, working, &dispatcher);
  if (chaotic.history.records().size() != spec.rounds) {
    out.fail("chaos_liveness",
             "chaotic run committed " +
                 std::to_string(chaotic.history.records().size()) + " of " +
                 std::to_string(spec.rounds) + " rounds");
    return;
  }
  check_round_accounting(chaotic.history, spec,
                         chaotic.final_parameters.size(), out);
}

void check_traced_differential(const ScenarioSpec& spec,
                               const data::FederatedDataset& fed,
                               const RunArtifacts& baseline, Reporter& out) {
  obs::set_trace_enabled(true);
  obs::set_metrics_enabled(true);
  RunArtifacts traced;
  try {
    traced = run_scenario(spec, fed);
  } catch (...) {
    obs::set_trace_enabled(false);
    obs::set_metrics_enabled(false);
    obs::TraceBuffer::global().clear();
    throw;
  }
  obs::set_trace_enabled(false);
  obs::set_metrics_enabled(false);
  obs::TraceBuffer::global().clear();
  compare_histories(baseline.history, traced.history, "diff_telemetry",
                    "untraced vs traced run", out);
}

void check_kernel_differential(const ScenarioSpec& spec,
                               const data::FederatedDataset& fed,
                               Reporter& out) {
  // One round only: in round 0 every client's last_loss is still
  // initial_loss, so selection (and the seeded fault trace) cannot depend on
  // the kernel backend — structure must match exactly, parameters within fp
  // tolerance.
  ScenarioSpec one_round = spec;
  one_round.rounds = 1;
  const auto previous = ops::kernel_backend();
  RunArtifacts opt, ref;
  try {
    ops::set_kernel_backend(ops::KernelBackend::kOptimized);
    opt = run_scenario(one_round, fed);
    ops::set_kernel_backend(ops::KernelBackend::kReference);
    ref = run_scenario(one_round, fed);
    ops::set_kernel_backend(previous);
  } catch (...) {
    ops::set_kernel_backend(previous);
    throw;
  }
  const auto& ro = opt.history.records();
  const auto& rr = ref.history.records();
  if (ro.size() != 1 || rr.size() != 1) {
    out.fail("diff_kernels", "expected exactly one round");
    return;
  }
  auto ids = [](const std::vector<std::size_t>& v) {
    std::string s;
    for (std::size_t id : v) s += std::to_string(id) + " ";
    return s;
  };
  if (ro[0].selected != rr[0].selected || ro[0].crashed != rr[0].crashed ||
      ro[0].late != rr[0].late || ro[0].rejected != rr[0].rejected ||
      ro[0].dispatched != rr[0].dispatched ||
      ro[0].downlink_bytes != rr[0].downlink_bytes ||
      ro[0].uplink_bytes != rr[0].uplink_bytes) {
    out.fail("diff_kernels",
             "round-0 structure differs between kernel backends: selected [" +
                 ids(ro[0].selected) + "] vs [" + ids(rr[0].selected) + "]");
    return;
  }
  if (opt.final_parameters.size() != ref.final_parameters.size()) {
    out.fail("diff_kernels", "parameter count differs between backends");
    return;
  }
  // Per-element comparison is not a valid oracle here: a pre-activation
  // landing within fp noise of a ReLU boundary flips its gradient mask
  // between backends, legitimately moving individual weights. The guarantee
  // that survives end-to-end training is aggregate: the whole parameter
  // vector stays within a small relative L2 distance, and nothing blows up.
  double diff_sq = 0.0, norm_sq = 0.0;
  for (std::size_t p = 0; p < opt.final_parameters.size(); ++p) {
    const double a = opt.final_parameters[p];
    const double b = ref.final_parameters[p];
    if (!std::isfinite(a) || !std::isfinite(b)) {
      out.fail("diff_kernels",
               "non-finite parameter " + std::to_string(p) + ": optimized " +
                   fmt(a) + " vs reference " + fmt(b));
      return;
    }
    diff_sq += (a - b) * (a - b);
    norm_sq += std::max(a * a, b * b);
  }
  const double rel = norm_sq > 0.0 ? std::sqrt(diff_sq / norm_sq) : 0.0;
  if (rel > 5e-2) {
    out.fail("diff_kernels",
             "parameter vectors diverge between kernel backends: relative "
             "L2 distance " + fmt(rel));
  }
}

template <typename Fn>
void guarded(Reporter& out, const std::string& section, Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    out.fail("exception:" + section, e.what());
  } catch (...) {
    out.fail("exception:" + section, "non-std exception");
  }
}

}  // namespace

std::vector<Violation> check_scenario(const ScenarioSpec& spec,
                                      const OracleOptions& options) {
  Reporter out;
  guarded(out, "spec", [&] { validate_spec(spec); });
  if (!out.clean()) return out.take();

  data::FederatedDataset fed;
  guarded(out, "dataset", [&] { fed = build_dataset(spec); });
  if (!out.clean()) return out.take();

  guarded(out, "summaries", [&] {
    check_summary_mass(fed, spec, out);
    const auto haccs = build_haccs_config(spec);
    const auto summaries = core::compute_summaries(fed, haccs);
    check_distance_invariants(summaries, spec, out);
    check_distance_recompute(summaries, spec, out);
    check_dp_nonnegative(summaries, out);
    check_cluster_permutation_invariance(summaries, haccs, spec, out);
    check_scale_differential(summaries, haccs, out);
  });

  guarded(out, "selector", [&] {
    // The runtime view a real run would hand the selector (profiles and
    // latencies derived from the engine seed).
    fl::FederatedTrainer trainer(fed, build_model_factory(spec, fed),
                                 build_engine_config(spec));
    const auto view = trainer.make_client_view();
    check_selection_contract(spec, fed, view, out);
    check_selection_mass(spec, fed, view, out);
    check_dead_client(spec, fed, view, out);
    check_state_roundtrip(spec, fed, view, out);
    // Eq. 7 and the failure penalty exist only on HaccsSelector entries.
    if (core::selector_info(spec.selector).haccs_summary) {
      check_eq7_and_srswr(spec, fed, view, options, out);
      check_failure_penalty(spec, fed, out);
    }
  });

  RunArtifacts baseline;
  bool ran = false;
  guarded(out, "engine_run", [&] {
    baseline = run_scenario(spec, fed);
    ran = true;
    const std::size_t params = baseline.final_parameters.size();
    check_round_accounting(baseline.history, spec, params, out);
  });

  if (options.differential && ran) {
    if (spec.chaos_enabled()) {
      guarded(out, "chaos_liveness",
              [&] { check_chaos_liveness(spec, fed, out); });
    } else {
      guarded(out, "diff_loopback_dispatch",
              [&] { check_loopback_differential(spec, fed, baseline, out); });
    }
    guarded(out, "diff_telemetry",
            [&] { check_traced_differential(spec, fed, baseline, out); });
    guarded(out, "diff_kernels",
            [&] { check_kernel_differential(spec, fed, out); });
  }
  return out.take();
}

bool has_oracle(const std::vector<Violation>& violations,
                const std::string& oracle) {
  for (const auto& v : violations) {
    if (v.oracle.rfind(oracle, 0) == 0) return true;
  }
  return false;
}

std::string replay_command(const ScenarioSpec& spec) {
  return "haccs_fuzz --replay \"" + to_spec_string(spec) + "\"";
}

}  // namespace haccs::testing
