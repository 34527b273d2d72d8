#include "src/core/stratified_selector.hpp"

#include <algorithm>
#include <stdexcept>

namespace haccs::core {

StratifiedSelector::StratifiedSelector(std::vector<int> cluster_labels) {
  build(std::move(cluster_labels));
}

void StratifiedSelector::build(std::vector<int> raw_labels) {
  int max_label = -1;
  for (int l : raw_labels) max_label = std::max(max_label, l);
  int next = max_label + 1;
  for (int& l : raw_labels) {
    if (l < 0) l = next++;  // noise -> singleton
  }
  clusters_.assign(static_cast<std::size_t>(next), {});
  for (std::size_t i = 0; i < raw_labels.size(); ++i) {
    clusters_[static_cast<std::size_t>(raw_labels[i])].push_back(i);
  }
  std::erase_if(clusters_, [](const auto& c) { return c.empty(); });
  member_cursor_.assign(clusters_.size(), 0);
}

std::vector<std::size_t> StratifiedSelector::select(
    std::size_t k, const std::vector<fl::ClientRuntimeInfo>& clients,
    std::size_t /*epoch*/, Rng& /*rng*/) {
  if (clusters_.empty()) {
    throw std::logic_error("StratifiedSelector: no clusters");
  }
  // Order each cluster's members by current latency so cursor rotation walks
  // fastest -> slowest -> fastest..., spreading work deterministically.
  std::vector<std::vector<std::size_t>> ordered(clusters_.size());
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    for (std::size_t id : clusters_[c]) {
      if (clients[id].available) ordered[c].push_back(id);
    }
    std::sort(ordered[c].begin(), ordered[c].end(),
              [&](std::size_t a, std::size_t b) {
                if (clients[a].latency_s != clients[b].latency_s) {
                  return clients[a].latency_s < clients[b].latency_s;
                }
                return a < b;
              });
  }

  std::vector<std::size_t> out;
  std::vector<std::size_t> taken(clusters_.size(), 0);
  // Walk clusters starting at the rotating cursor until k picks or no
  // available device remains anywhere.
  std::size_t scanned_without_pick = 0;
  std::size_t c = next_cluster_ % clusters_.size();
  while (out.size() < k && scanned_without_pick < clusters_.size()) {
    auto& pool = ordered[c];
    if (taken[c] < pool.size()) {
      const std::size_t pick =
          pool[(member_cursor_[c] + taken[c]) % pool.size()];
      // The modulo walk can revisit; guard against duplicates.
      if (std::find(out.begin(), out.end(), pick) == out.end()) {
        out.push_back(pick);
        ++taken[c];
        scanned_without_pick = 0;
      } else {
        ++taken[c];
        continue;  // try the same cluster's next member before moving on
      }
    } else {
      ++scanned_without_pick;
    }
    c = (c + 1) % clusters_.size();
  }

  // Advance the rotors so the next epoch starts one cluster later and each
  // cluster's next member gets its turn.
  next_cluster_ = (next_cluster_ + 1) % clusters_.size();
  for (std::size_t i = 0; i < clusters_.size(); ++i) {
    if (taken[i] > 0 && !ordered[i].empty()) {
      member_cursor_[i] = (member_cursor_[i] + taken[i]) % ordered[i].size();
    }
  }
  return out;
}

}  // namespace haccs::core
