// Tests for the serving topology (src/net/topology.hpp): the client ->
// worker -> aggregator placement rule at several tree shapes, the shape
// refusals every tier and binary relies on, that a grouped flat root folds
// exactly the tree's subtrees, and that a tree root's aggregators are its
// topology's.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/haccs_system.hpp"
#include "src/data/partition.hpp"
#include "src/fl/net_driver.hpp"
#include "src/hier/tree_dispatcher.hpp"
#include "src/net/loopback.hpp"
#include "src/net/topology.hpp"

namespace haccs {
namespace {

// Client c lives on worker c % W; aggregator a fronts [a·W/A, (a+1)·W/A).
TEST(HierTopology, PlacementAtEveryShape) {
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {1, 1}, {4, 2}, {6, 3}, {8, 8}};
  for (const auto& [workers, aggs] : shapes) {
    SCOPED_TRACE(std::to_string(workers) + " workers, " +
                 std::to_string(aggs) + " aggs");
    const net::Topology topology(workers, aggs);
    const std::size_t per = workers / aggs;
    const std::size_t clients = 3 * workers + 1;
    EXPECT_EQ(topology.workers(), workers);
    EXPECT_EQ(topology.aggs(), aggs);
    EXPECT_EQ(topology.workers_per_agg(), per);

    // The slices partition the workers, contiguously and in order.
    std::size_t next = 0;
    for (std::size_t a = 0; a < aggs; ++a) {
      const net::WorkerSlice slice = topology.slice(a);
      EXPECT_EQ(slice.begin, next);
      EXPECT_EQ(slice.size(), per);
      next = slice.end;
      const net::TopologyHelloMsg hello = topology.hello(a);
      EXPECT_EQ(hello.agg_id, a);
      EXPECT_EQ(hello.num_aggs, aggs);
      EXPECT_EQ(hello.worker_begin, slice.begin);
      EXPECT_EQ(hello.worker_end, slice.end);
      EXPECT_TRUE(topology.announces(hello));
    }
    EXPECT_EQ(next, workers);

    // Every client has one worker, inside its aggregator's slice.
    std::vector<std::vector<std::uint32_t>> hosted(workers);
    for (std::size_t c = 0; c < clients; ++c) {
      const std::size_t w = topology.worker_of(c);
      EXPECT_EQ(w, c % workers);
      EXPECT_EQ(topology.agg_of(c), w / per);
      EXPECT_TRUE(topology.slice(topology.agg_of(c)).contains(w));
      hosted[w].push_back(static_cast<std::uint32_t>(c));
    }
    for (std::size_t w = 0; w < workers; ++w) {
      EXPECT_EQ(topology.hosted_clients(w, clients), hosted[w]);
    }
  }
}

TEST(HierTopology, ExplicitSlicesAndHostedClients) {
  const net::Topology topology(6, 3);
  EXPECT_EQ(topology.slice(1).begin, 2u);
  EXPECT_EQ(topology.slice(1).end, 4u);
  EXPECT_EQ(topology.hosted_clients(4, 17),
            (std::vector<std::uint32_t>{4, 10, 16}));
  EXPECT_EQ(topology.agg_of(11), 2u);  // worker 5
  EXPECT_EQ(topology.agg_of(13), 0u);  // worker 1
  EXPECT_TRUE(topology.hosted_clients(5, 5).empty());
}

// A TopologyHello that names another shape or a slice other than its own
// is not announced by this topology.
TEST(HierTopology, ForeignHellosAreNotAnnounced) {
  const net::Topology topology(4, 2);
  net::TopologyHelloMsg hello = topology.hello(1);
  hello.num_clients = 9;  // the client count is the caller's
  EXPECT_TRUE(topology.announces(hello));
  auto shifted = hello;
  shifted.worker_begin = 1;
  shifted.worker_end = 3;
  EXPECT_FALSE(topology.announces(shifted));
  auto other_shape = hello;
  other_shape.num_aggs = 4;
  EXPECT_FALSE(topology.announces(other_shape));
  auto out_of_range = hello;
  out_of_range.agg_id = 2;
  EXPECT_FALSE(topology.announces(out_of_range));
}

/// The std::invalid_argument message `make` throws, or "" when it does not.
template <typename F>
std::string refusal(F make) {
  try {
    make();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(HierTopology, RefusalsNameTheBadValue) {
  EXPECT_EQ(refusal([] { net::Topology(0); }),
            "serving topology: workers = 0; there must be at least one");
  EXPECT_EQ(refusal([] { net::Topology(4, 0); }),
            "serving topology: aggs = 0; there must be at least one");
  EXPECT_EQ(refusal([] { net::Topology(4, 3); }),
            "serving topology: aggs = 3 does not divide workers = 4");
  EXPECT_EQ(refusal([] { net::Topology(2, 4); }),
            "serving topology: aggs = 4 does not divide workers = 2");
  const net::Topology topology(4, 2);
  EXPECT_EQ(refusal([&] { topology.slice(2); }),
            "serving topology: aggregator id 2 out of range [0, 2)");
  EXPECT_EQ(refusal([&] { topology.hello(7); }),
            "serving topology: aggregator id 7 out of range [0, 2)");
  EXPECT_EQ(refusal([&] { topology.check_worker(4); }),
            "serving topology: worker id 4 out of range [0, 4)");
  EXPECT_EQ(refusal([&] { topology.hosted_clients(4, 8); }),
            "serving topology: worker id 4 out of range [0, 4)");
  EXPECT_EQ(refusal([&] { topology.check_worker(3); }), "");
}

// A flat root with agg_groups = A folds each update into the group of its
// client's aggregator under Topology(W, A): exactly the subtrees a tree
// with A aggregators settles.
TEST(HierTopology, GroupedFlatRootGroupsAreTheTreeSubtrees) {
  data::SyntheticImageConfig cfg = data::SyntheticImageConfig::femnist_like(4);
  cfg.height = 8;
  cfg.width = 8;
  data::SyntheticImageGenerator gen(cfg);
  data::PartitionConfig pcfg;
  pcfg.num_clients = 12;
  pcfg.min_samples = 20;
  pcfg.max_samples = 60;
  pcfg.test_samples = 4;
  Rng rng(31);
  const auto fed = data::partition_majority_label(gen, pcfg, rng);
  const auto factory = core::default_model_factory(fed, 99);

  const net::Topology topology(4, 2);
  fl::LoopbackCluster cluster(fed, factory, topology.workers());
  fl::TransportDispatcherConfig config;
  config.agg_groups = topology.aggs();
  fl::TransportDispatcher dispatcher(cluster.server_transports(), config);

  // Subtree 0 (workers 0, 1) gets clients 0, 1, 5, 9; subtree 1 (workers 2,
  // 3) gets 3 alone — a grouping by client % aggs would give 1 and 4.
  const std::vector<std::size_t> clients = {0, 1, 5, 3, 9};
  std::vector<fl::TrainJobSpec> jobs(clients.size());
  for (std::size_t j = 0; j < clients.size(); ++j) {
    jobs[j].slot = j;
    jobs[j].client_id = clients[j];
    jobs[j].rng_seed = 7 + j;
  }
  const std::vector<float> params = factory().get_parameters();
  std::vector<fl::TrainOutcome> outcomes(jobs.size());
  dispatcher.execute(jobs, params, outcomes);

  const std::vector<fl::PartialAggregate>* partials = dispatcher.partials();
  ASSERT_NE(partials, nullptr);
  ASSERT_EQ(partials->size(), topology.aggs());
  for (std::size_t a = 0; a < topology.aggs(); ++a) {
    std::size_t updates = 0;
    double weight = 0.0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      ASSERT_TRUE(outcomes[j].delivered);
      if (topology.slice(a).contains(topology.worker_of(clients[j]))) {
        ++updates;
        weight += outcomes[j].weight;
      }
    }
    EXPECT_EQ((*partials)[a].updates, updates) << "group " << a;
    EXPECT_EQ((*partials)[a].weight, weight) << "group " << a;
  }
  EXPECT_EQ((*partials)[0].updates, 4u);
  EXPECT_EQ((*partials)[1].updates, 1u);
}

// The flat root's grouping goes through the same refusal.
TEST(HierTopology, GroupedFlatRootRefusesAGroupCountThatDoesNotDivide) {
  auto a = net::make_loopback_pair();
  auto b = net::make_loopback_pair();
  fl::TransportDispatcherConfig config;
  config.agg_groups = 3;
  EXPECT_EQ(refusal([&] {
              fl::TransportDispatcher({a.a.get(), b.a.get()}, config);
            }),
            "serving topology: aggs = 3 does not divide workers = 2");
}

// The tree root's aggregators are its topology's: a transport count that
// differs is refused by name.
TEST(HierTopology, TreeRootRefusesATopologyOfAnotherAggregatorCount) {
  auto a = net::make_loopback_pair();
  auto b = net::make_loopback_pair();
  auto c = net::make_loopback_pair();
  EXPECT_EQ(refusal([&] {
              hier::TreeDispatcher({a.a.get(), b.a.get(), c.a.get()}, {},
                                   net::Topology(4, 2));
            }),
            "TreeDispatcher: the topology has 2 aggregators but there are 3 "
            "transports");
  EXPECT_EQ(refusal([&] {
              hier::TreeDispatcher({a.a.get(), b.a.get()}, {},
                                   net::Topology(4, 2));
            }),
            "");
}

}  // namespace
}  // namespace haccs
