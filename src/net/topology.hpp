// Topology: the serving tree's shape (DESIGN.md §5j), the one place its
// placement rule and its checks live.
//
// W workers sit under A aggregators, and A must divide W. Client c lives on
// worker c % W (each device hosts its own clients, paper §II-A), and worker w
// sits under aggregator w / (W / A), so aggregator a fronts the contiguous
// slice [a·W/A, (a+1)·W/A). A flat root is one aggregator over every worker;
// a grouped flat root's groups are a tree's aggregators — the same subtrees,
// which is why the two aggregate bit-identically.
//
// Every tier and binary builds its shape here: the fleet's handshake checks,
// the mid tier's slice and TopologyHello, both roots' routing and grouping,
// and the binaries' startup refusals.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/net/messages.hpp"

namespace haccs::net {

/// Workers [begin, end).
struct WorkerSlice {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const { return end - begin; }
  bool contains(std::size_t worker) const {
    return worker >= begin && worker < end;
  }
};

class Topology {
 public:
  /// Throws std::invalid_argument naming the bad value when there are no
  /// workers or no aggregators, or when `aggs` does not divide `workers`.
  explicit Topology(std::size_t workers, std::size_t aggs = 1)
      : workers_(workers), aggs_(aggs) {
    if (workers == 0) refuse("workers = 0; there must be at least one");
    if (aggs == 0) refuse("aggs = 0; there must be at least one");
    if (workers % aggs != 0) {
      refuse("aggs = " + std::to_string(aggs) + " does not divide workers = " +
             std::to_string(workers));
    }
  }

  std::size_t workers() const { return workers_; }
  std::size_t aggs() const { return aggs_; }
  std::size_t workers_per_agg() const { return workers_ / aggs_; }

  std::size_t worker_of(std::size_t client) const {
    return client % workers_;
  }
  std::size_t agg_of(std::size_t client) const {
    return worker_of(client) / workers_per_agg();
  }

  /// Throws std::invalid_argument unless `worker` is one of the workers.
  void check_worker(std::size_t worker) const {
    check_id("worker", worker, workers_);
  }
  /// Aggregator `agg`'s workers; throws std::invalid_argument for an id out
  /// of range.
  WorkerSlice slice(std::size_t agg) const {
    check_id("aggregator", agg, aggs_);
    return {agg * workers_per_agg(), (agg + 1) * workers_per_agg()};
  }
  /// The clients among [0, num_clients) that `worker` hosts, ascending.
  std::vector<std::uint32_t> hosted_clients(std::size_t worker,
                                            std::size_t num_clients) const {
    check_worker(worker);
    std::vector<std::uint32_t> hosted;
    for (std::size_t c = worker; c < num_clients; c += workers_) {
      hosted.push_back(static_cast<std::uint32_t>(c));
    }
    return hosted;
  }

  /// The TopologyHello aggregator `agg` must announce; the caller fills in
  /// num_clients.
  TopologyHelloMsg hello(std::size_t agg) const {
    const WorkerSlice s = slice(agg);
    return {static_cast<std::uint32_t>(agg), static_cast<std::uint32_t>(aggs_),
            static_cast<std::uint32_t>(s.begin),
            static_cast<std::uint32_t>(s.end)};
  }
  /// Whether `msg` is the hello() of one of these aggregators (its client
  /// count aside).
  bool announces(const TopologyHelloMsg& msg) const {
    if (msg.agg_id >= aggs_) return false;
    const WorkerSlice s = slice(msg.agg_id);
    return msg.num_aggs == aggs_ && msg.worker_begin == s.begin &&
           msg.worker_end == s.end;
  }

 private:
  [[noreturn]] static void refuse(const std::string& why) {
    throw std::invalid_argument("serving topology: " + why);
  }
  static void check_id(const char* role, std::size_t id, std::size_t count) {
    if (id >= count) {
      refuse(std::string(role) + " id " + std::to_string(id) +
             " out of range [0, " + std::to_string(count) + ")");
    }
  }

  std::size_t workers_;
  std::size_t aggs_;
};

}  // namespace haccs::net
