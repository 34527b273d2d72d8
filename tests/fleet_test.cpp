// Tests for the root's peer fleet (src/hier/fleet.hpp): the one handshake
// workers and aggregators share, duplicate and topology rejection, refusal
// of malformed reconnects without disturbing the run, reconnect staging
// until reacquire(), the per-peer chaos seeds, and the wind-down frames.
#include <gtest/gtest.h>

#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/hier/fleet.hpp"
#include "src/net/chaos.hpp"
#include "src/net/loopback.hpp"
#include "src/net/messages.hpp"
#include "src/net/topology.hpp"
#include "src/stats/summary_codec.hpp"

namespace haccs {
namespace {

data::FederatedDataset make_fed(std::size_t clients = 8) {
  data::SyntheticImageConfig cfg = data::SyntheticImageConfig::femnist_like(4);
  cfg.height = 10;
  cfg.width = 10;
  cfg.noise_stddev = 0.6;
  data::SyntheticImageGenerator gen(cfg);
  data::PartitionConfig pcfg;
  pcfg.num_clients = clients;
  pcfg.min_samples = 40;
  pcfg.max_samples = 80;
  pcfg.test_samples = 12;
  Rng rng(19);
  return data::partition_majority_label(gen, pcfg, rng);
}

/// Stands in for a TcpListener: connect() opens a loopback pair, queues the
/// server end for the fleet's acceptor and hands the peer end back.
struct LoopbackAcceptor {
  std::deque<std::unique_ptr<net::Transport>> queued;

  std::unique_ptr<net::Transport> connect() {
    auto pair = net::make_loopback_pair();
    queued.push_back(std::move(pair.a));
    return std::move(pair.b);
  }

  hier::Fleet::Acceptor acceptor() {
    return [this](int) -> std::unique_ptr<net::Transport> {
      if (queued.empty()) return nullptr;
      auto transport = std::move(queued.front());
      queued.pop_front();
      return transport;
    };
  }
};

hier::FleetConfig flat_config(std::size_t workers, std::size_t clients) {
  hier::FleetConfig config;
  config.topology = net::Topology(workers);
  config.num_clients = clients;
  config.io_timeout_ms = 1000;
  return config;
}

hier::FleetConfig tree_config(std::size_t aggs, std::size_t workers) {
  hier::FleetConfig config = flat_config(workers, 0);
  config.topology = net::Topology(workers, aggs);
  config.agg_id = std::nullopt;
  return config;
}

void send_topology_hello(net::Transport& peer, std::uint32_t agg_id,
                         std::uint32_t num_aggs, std::uint32_t begin,
                         std::uint32_t end) {
  net::TopologyHelloMsg hello;
  hello.agg_id = agg_id;
  hello.num_aggs = num_aggs;
  hello.worker_begin = begin;
  hello.worker_end = end;
  ASSERT_EQ(peer.send(net::encode_topology_hello(hello)),
            net::TransportStatus::Ok);
}

/// accept_all()'s FleetError message, or "" when it succeeded.
std::string accept_error(hier::Fleet& fleet) {
  try {
    fleet.accept_all(1000);
  } catch (const hier::FleetError& e) {
    return e.what();
  }
  return "";
}

TEST(HierFleet, WorkerHandshakeCollectsEverySummary) {
  const auto fed = make_fed();
  LoopbackAcceptor listener;
  hier::Fleet fleet(flat_config(2, fed.clients.size()), listener.acceptor());
  auto w1 = listener.connect();
  auto w0 = listener.connect();
  ASSERT_TRUE(hier::send_worker_hello(*w1, fed, 1, 2));
  ASSERT_TRUE(hier::send_worker_hello(*w0, fed, 0, 2));
  ASSERT_EQ(accept_error(fleet), "");

  EXPECT_TRUE(fleet.have_all_summaries());
  const auto transports = fleet.transports();
  ASSERT_EQ(transports.size(), 2u);
  EXPECT_NE(transports[0], nullptr);
  EXPECT_NE(transports[1], nullptr);
  // The wire round trip is exact: the root sees the workers' own tables.
  for (std::size_t c = 0; c < fed.clients.size(); ++c) {
    const auto got = fleet.summaries()[c].label_counts.counts();
    const auto sent = stats::summarize_response(fed.clients[c].train);
    const auto want = sent.label_counts.counts();
    EXPECT_EQ(std::vector<double>(got.begin(), got.end()),
              std::vector<double>(want.begin(), want.end()))
        << "client " << c;
  }

  // Wind-down: EvalReport then Shutdown to every peer.
  fleet.shut_down(net::EvalReportMsg{}, nullptr);
  for (auto* peer : {w0.get(), w1.get()}) {
    net::Frame frame;
    ASSERT_EQ(peer->recv(&frame, 1000), net::TransportStatus::Ok);
    EXPECT_EQ(frame.type, net::MessageType::EvalReport);
    ASSERT_EQ(peer->recv(&frame, 1000), net::TransportStatus::Ok);
    EXPECT_EQ(frame.type, net::MessageType::Shutdown);
  }
}

TEST(HierFleet, DuplicateWorkerIdIsRejectedByName) {
  const auto fed = make_fed();
  LoopbackAcceptor listener;
  hier::Fleet fleet(flat_config(2, fed.clients.size()), listener.acceptor());
  auto first = listener.connect();
  auto second = listener.connect();
  ASSERT_TRUE(hier::send_worker_hello(*first, fed, 1, 2));
  ASSERT_TRUE(hier::send_worker_hello(*second, fed, 1, 2));
  EXPECT_NE(accept_error(fleet).find("duplicate worker id 1"),
            std::string::npos);
}

TEST(HierFleet, AggregatorTopologyMismatchIsRejectedByName) {
  LoopbackAcceptor listener;
  hier::Fleet fleet(tree_config(2, 4), listener.acceptor());
  auto agg = listener.connect();
  // Aggregator 1 of 2 must front workers [2, 4).
  send_topology_hello(*agg, 1, 2, 1, 3);
  const std::string error = accept_error(fleet);
  EXPECT_NE(error.find("topology mismatch (agg 1/2"), std::string::npos)
      << error;
}

TEST(HierFleet, DuplicateAggregatorIdIsRejectedByName) {
  LoopbackAcceptor listener;
  hier::Fleet fleet(tree_config(2, 4), listener.acceptor());
  auto first = listener.connect();
  auto second = listener.connect();
  send_topology_hello(*first, 0, 2, 0, 2);
  send_topology_hello(*second, 0, 2, 0, 2);
  const std::string error = accept_error(fleet);
  EXPECT_NE(error.find("duplicate aggregator id 0"), std::string::npos)
      << error;
}

// A CRC-valid but malformed handshake mid-run must cost only that
// connection: reacquire() refuses it and returns null instead of letting the
// decode error escape into the round loop, and the worker's next correct
// reconnect still reclaims the slot.
TEST(HierFleet, MalformedReconnectIsRefusedAndTheSlotSurvives) {
  const auto fed = make_fed();
  LoopbackAcceptor listener;
  hier::Fleet fleet(flat_config(2, fed.clients.size()), listener.acceptor());
  auto w0 = listener.connect();
  auto w1 = listener.connect();
  ASSERT_TRUE(hier::send_worker_hello(*w0, fed, 0, 2));
  ASSERT_TRUE(hier::send_worker_hello(*w1, fed, 1, 2));
  ASSERT_EQ(accept_error(fleet), "");

  // A truncated Hello.
  auto truncated = listener.connect();
  net::Frame short_hello;
  short_hello.type = net::MessageType::Hello;
  short_hello.payload = {1, 2};
  ASSERT_EQ(truncated->send(short_hello), net::TransportStatus::Ok);
  // A Summary of Conditional kind.
  auto conditional = listener.connect();
  ASSERT_EQ(conditional->send(net::encode_hello({0, 1})),
            net::TransportStatus::Ok);
  net::SummaryMsg wrong_kind;
  wrong_kind.kind = static_cast<std::uint8_t>(stats::SummaryKind::Conditional);
  wrong_kind.lo = 0.0;
  wrong_kind.hi = 1.0;
  wrong_kind.tables = {{1.0, 2.0}};
  ASSERT_EQ(conditional->send(net::encode_summary(wrong_kind)),
            net::TransportStatus::Ok);
  // A Response Summary with an empty table.
  auto empty = listener.connect();
  ASSERT_EQ(empty->send(net::encode_hello({0, 1})), net::TransportStatus::Ok);
  net::SummaryMsg no_table;
  no_table.kind = static_cast<std::uint8_t>(stats::SummaryKind::Response);
  ASSERT_EQ(empty->send(net::encode_summary(no_table)),
            net::TransportStatus::Ok);
  // A Hello claiming more clients than the federation has.
  auto huge = listener.connect();
  ASSERT_EQ(huge->send(net::encode_hello({0, 0xFFFFFFFFu})),
            net::TransportStatus::Ok);
  // Worker 0 sending a summary for client 1, which worker 1 hosts (a worker
  // started with the wrong --workers): refused, not stored over client 1's.
  auto foreign = listener.connect();
  ASSERT_EQ(foreign->send(net::encode_hello({0, 1})), net::TransportStatus::Ok);
  ASSERT_EQ(foreign->send(net::encode_summary(stats::encode_summary_msg(
                1, stats::summarize_response(fed.clients[0].train)))),
            net::TransportStatus::Ok);
  // Worker 0 sending a NaN label count, which would make every Hellinger
  // distance to client 0 NaN.
  auto poisoned = listener.connect();
  ASSERT_EQ(poisoned->send(net::encode_hello({0, 1})),
            net::TransportStatus::Ok);
  auto nan_counts = stats::encode_summary_msg(
      0, stats::summarize_response(fed.clients[0].train));
  nan_counts.tables.front()[0] = std::numeric_limits<double>::quiet_NaN();
  ASSERT_EQ(poisoned->send(net::encode_summary(nan_counts)),
            net::TransportStatus::Ok);

  net::Transport* reacquired = nullptr;
  EXPECT_NO_THROW(reacquired = fleet.reacquire(0));
  EXPECT_EQ(reacquired, nullptr);
  // Each refused peer was dropped: its end of the link sees the close.
  for (auto* peer : {truncated.get(), conditional.get(), empty.get(),
                     huge.get(), foreign.get(), poisoned.get()}) {
    net::Frame frame;
    EXPECT_EQ(peer->recv(&frame, 1000), net::TransportStatus::Closed);
  }
  const auto kept = fleet.summaries()[1].label_counts.counts();
  const auto hosted = stats::summarize_response(fed.clients[1].train);
  const auto want = hosted.label_counts.counts();
  EXPECT_EQ(std::vector<double>(kept.begin(), kept.end()),
            std::vector<double>(want.begin(), want.end()));

  auto retry = listener.connect();
  ASSERT_TRUE(hier::send_worker_hello(*retry, fed, 0, 2));
  reacquired = fleet.reacquire(0);
  ASSERT_NE(reacquired, nullptr);
  EXPECT_EQ(fleet.transports()[0], reacquired);
  ASSERT_EQ(reacquired->send(net::encode_shutdown()), net::TransportStatus::Ok);
  net::Frame frame;
  ASSERT_EQ(retry->recv(&frame, 1000), net::TransportStatus::Ok);
  EXPECT_EQ(frame.type, net::MessageType::Shutdown);
}

TEST(HierFleet, MalformedHandshakeErrorNamesThePeer) {
  LoopbackAcceptor listener;
  hier::Fleet fleet(flat_config(1, 4), listener.acceptor());
  auto peer = listener.connect();
  net::Frame short_hello;
  short_hello.type = net::MessageType::Hello;
  short_hello.payload = {7};
  ASSERT_EQ(peer->send(short_hello), net::TransportStatus::Ok);
  const std::string address = listener.queued.front()->peer();
  const std::string error = accept_error(fleet);
  EXPECT_NE(error.find("handshake with " + address + " refused: malformed"),
            std::string::npos)
      << error;
}

// The reconnect-staging invariant: a worker that re-Hellos while its old
// transport is still live in the dispatcher is staged, and the old
// Transport* stays valid until reacquire() runs for that worker. Installing
// the fresh session eagerly would free the transport the dispatcher holds.
TEST(HierFleet, ReconnectIsStagedUntilReacquire) {
  const auto fed = make_fed();
  LoopbackAcceptor listener;
  hier::Fleet fleet(flat_config(2, fed.clients.size()), listener.acceptor());
  auto w0 = listener.connect();
  auto w1 = listener.connect();
  ASSERT_TRUE(hier::send_worker_hello(*w0, fed, 0, 2));
  ASSERT_TRUE(hier::send_worker_hello(*w1, fed, 1, 2));
  ASSERT_EQ(accept_error(fleet), "");
  net::Transport* const old0 = fleet.transports()[0];

  // Worker 0 reconnects; the dispatcher then reacquires worker 1, which
  // drains the acceptor and so handshakes worker 0's new session too.
  auto w0_again = listener.connect();
  ASSERT_TRUE(hier::send_worker_hello(*w0_again, fed, 0, 2));
  EXPECT_EQ(fleet.reacquire(1), nullptr);

  ASSERT_EQ(fleet.transports()[0], old0) << "reconnect installed eagerly";
  ASSERT_EQ(old0->send(net::encode_shutdown()), net::TransportStatus::Ok);
  net::Frame frame;
  ASSERT_EQ(w0->recv(&frame, 1000), net::TransportStatus::Ok);
  EXPECT_EQ(frame.type, net::MessageType::Shutdown);

  // Only worker 0's own reacquire swaps the staged session in.
  net::Transport* const fresh = fleet.reacquire(0);
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh, old0);
  EXPECT_EQ(fleet.transports()[0], fresh);
  ASSERT_EQ(fresh->send(net::encode_shutdown()), net::TransportStatus::Ok);
  ASSERT_EQ(w0_again->recv(&frame, 1000), net::TransportStatus::Ok);
  EXPECT_EQ(frame.type, net::MessageType::Shutdown);
}

/// Which of 64 numbered frames survive `sender`'s chaos on their way to
/// `receiver` — the fault script, a pure function of the chaos seed.
std::vector<std::uint32_t> fault_script(net::Transport& sender,
                                        net::Transport& receiver) {
  for (std::uint32_t i = 0; i < 64; ++i) {
    sender.send(net::encode_hello({i, 0}));
  }
  std::vector<std::uint32_t> arrived;
  net::Frame frame;
  while (receiver.recv(&frame, 0) == net::TransportStatus::Ok) {
    arrived.push_back(net::decode_hello(frame).worker_id);
  }
  return arrived;
}

/// The fault script of a reference link seeded with `seed`.
std::vector<std::uint32_t> reference_script(const net::ChaosOptions& chaos,
                                            std::uint64_t seed) {
  auto pair = net::make_loopback_pair();
  net::ChaosOptions options = chaos;
  options.seed = seed;
  auto sender = net::wrap_chaos(std::move(pair.a), options);
  return fault_script(*sender, *pair.b);
}

// The chaos seeds the fleet forks per peer are pinned to the formulas the
// serving smoke's chaos scripts were recorded with: workers fork per
// (worker, session), aggregators per aggregator only.
TEST(HierFleet, ChaosSeedsAreForkedPerPeerAndSession) {
  net::ChaosOptions chaos;
  chaos.seed = 42;
  chaos.drop_rate = 0.5;
  const auto fed = make_fed();

  LoopbackAcceptor listener;
  hier::FleetConfig config = flat_config(2, fed.clients.size());
  config.chaos = chaos;
  hier::Fleet fleet(config, listener.acceptor());
  auto w0 = listener.connect();
  auto w1 = listener.connect();
  ASSERT_TRUE(hier::send_worker_hello(*w0, fed, 0, 2));
  ASSERT_TRUE(hier::send_worker_hello(*w1, fed, 1, 2));
  ASSERT_EQ(accept_error(fleet), "");
  EXPECT_EQ(fault_script(*fleet.transports()[0], *w0),
            reference_script(chaos, 42 ^ (0xa11ce11aULL * 1) ^ 0x5e5510ULL));
  EXPECT_EQ(fault_script(*fleet.transports()[1], *w1),
            reference_script(chaos, 42 ^ (0xa11ce11aULL * 2) ^ 0x5e5510ULL));
  // Worker 1's second session replays a different script.
  auto w1_again = listener.connect();
  ASSERT_TRUE(hier::send_worker_hello(*w1_again, fed, 1, 2));
  net::Transport* const second = fleet.reacquire(1);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(fault_script(*second, *w1_again),
            reference_script(chaos,
                             42 ^ (0xa11ce11aULL * 2) ^ (0x5e5510ULL * 2)));

  LoopbackAcceptor agg_listener;
  hier::FleetConfig agg_config = tree_config(2, 4);
  agg_config.chaos = chaos;
  hier::Fleet aggs(agg_config, agg_listener.acceptor());
  auto a0 = agg_listener.connect();
  auto a1 = agg_listener.connect();
  send_topology_hello(*a0, 0, 2, 0, 2);
  send_topology_hello(*a1, 1, 2, 2, 4);
  ASSERT_EQ(accept_error(aggs), "");
  EXPECT_EQ(fault_script(*aggs.transports()[0], *a0),
            reference_script(chaos, 42 ^ (0xa11ce11aULL * 1)));
  EXPECT_EQ(fault_script(*aggs.transports()[1], *a1),
            reference_script(chaos, 42 ^ (0xa11ce11aULL * 2)));
}

}  // namespace
}  // namespace haccs
