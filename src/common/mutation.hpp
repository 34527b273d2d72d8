// Test-only mutation hooks for the fuzzer's mutation-smoke check
// (TESTING.md "Mutation smoke").
//
// A mutation is a deliberate, compile-time-injected bug that the fuzzing
// oracles must detect — the standing proof that the oracle suite has teeth.
// Hook sites live in production code behind `#if HACCS_MUTATIONS` (a CMake
// option, ON by default for development/CI builds, OFF for deployments) and
// check a single relaxed atomic, so with the flag compiled in but no
// mutation armed the production path is unchanged.
#pragma once

#include <atomic>
#include <string>

#include "src/common/name_table.hpp"

namespace haccs::mutation {

enum class Kind {
  None,
  /// haccs_selector.cpp cluster_weights: use the raw cluster average loss
  /// instead of the ACL_i / ΣACL_j normalized term in Eq. 7 — the selection
  /// distribution silently skews toward lossy clusters without crashing.
  DropEq7Normalization,
  /// haccs_selector.cpp report_failure: skip the multiplicative penalty on
  /// a failed client — the selector keeps re-dispatching crashing devices at
  /// full priority. Detected by the failure_penalty oracle.
  DropFailurePenalty,
  /// distance.cpp distribution_distance: silently answer L2 between the
  /// normalized distributions when Hellinger is requested — cluster
  /// structure degrades without crashing (pipeline.cpp summary_distances
  /// leaves its prepared-row path while this is armed, so the matrix sees
  /// it too). Detected by the distance_recompute oracle.
  ClusterDistanceL2,
};

inline std::atomic<Kind>& active_mutation() {
  static std::atomic<Kind> active{Kind::None};
  return active;
}

inline bool enabled(Kind kind) {
  return active_mutation().load(std::memory_order_relaxed) == kind;
}

inline void set_active(Kind kind) {
  active_mutation().store(kind, std::memory_order_relaxed);
}

inline Kind parse(const std::string& name) {
  static constexpr Named<Kind> kNames[] = {
      {Kind::None, "none"},
      {Kind::DropEq7Normalization, "drop-eq7-normalization"},
      {Kind::DropFailurePenalty, "drop-failure-penalty"},
      {Kind::ClusterDistanceL2, "cluster-distance-l2"}};
  return parse_name(kNames, name, "mutation");
}

/// RAII arm/disarm so a test can never leak an active mutation.
class ScopedMutation {
 public:
  explicit ScopedMutation(Kind kind) { set_active(kind); }
  ~ScopedMutation() { set_active(Kind::None); }
  ScopedMutation(const ScopedMutation&) = delete;
  ScopedMutation& operator=(const ScopedMutation&) = delete;
};

}  // namespace haccs::mutation
