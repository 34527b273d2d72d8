#include "src/clustering/groups.hpp"

#include <algorithm>

namespace haccs::clustering {

ClusterGroups group_by_label(std::vector<int> labels) {
  int next = 0;
  for (int l : labels) next = std::max(next, l + 1);
  for (int& l : labels) {
    if (l < 0) l = next++;
  }
  ClusterGroups groups;
  groups.members.assign(static_cast<std::size_t>(next), {});
  for (std::size_t i = 0; i < labels.size(); ++i) {
    groups.members[static_cast<std::size_t>(labels[i])].push_back(i);
  }
  std::erase_if(groups.members, [](const auto& c) { return c.empty(); });
  for (std::size_t c = 0; c < groups.members.size(); ++c) {
    for (std::size_t member : groups.members[c]) {
      labels[member] = static_cast<int>(c);
    }
  }
  groups.cluster_of = std::move(labels);
  return groups;
}

}  // namespace haccs::clustering
