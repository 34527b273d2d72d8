// Cluster labels to member lists: the form every cluster-based selector
// (HACCS, stratified, FedLECC) schedules over.
#pragma once

#include <cstddef>
#include <vector>

namespace haccs::clustering {

struct ClusterGroups {
  /// Per point: its cluster's index into `members`.
  std::vector<int> cluster_of;
  /// Per cluster: its point ids, ascending. No cluster is empty.
  std::vector<std::vector<std::size_t>> members;
};

/// Groups points by label. Each noise point (-1) becomes a fresh singleton
/// cluster, so a client whose distribution matches nobody stays reachable;
/// labels that no point carries are dropped and the clusters renumbered
/// 0..m-1 in label order, noise singletons last.
ClusterGroups group_by_label(std::vector<int> labels);

}  // namespace haccs::clustering
