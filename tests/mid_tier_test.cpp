// Tests for the mid-tier aggregator (src/hier/mid_tier.hpp) driven by hand:
// an emulated root on a loopback pair sends SubtreeRound frames, and
// emulated workers connect over TCP to the aggregator's listener, handshake
// with hier::send_worker_hello and answer their jobs frame by frame.
// HierMidTier.* pins how a closed worker, a CRC-bad frame and the round
// budget settle a subtree round, that stale and duplicated rounds are not
// served again, that only a client's own worker can settle it, that
// heartbeats flow while a round collects, that each worker's TrainJob is
// the one a flat root would send, and that Summary frames cross the tier
// byte for byte.
// HierMidTierHandshake.* pins that a bad downstream handshake stops the
// aggregator before it announces itself.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/data/partition.hpp"
#include "src/data/synthetic.hpp"
#include "src/fl/protocol.hpp"
#include "src/hier/fleet.hpp"
#include "src/hier/mid_tier.hpp"
#include "src/net/chaos.hpp"
#include "src/net/loopback.hpp"
#include "src/net/messages.hpp"
#include "src/net/tcp.hpp"
#include "src/obs/trace.hpp"
#include "src/stats/summary.hpp"
#include "src/stats/summary_codec.hpp"

namespace haccs {
namespace {

constexpr int kWaitMs = 10000;
/// Round deadline of the tests that settle on it: long enough for every
/// prompt reply to land first, even under sanitizers.
constexpr int kDeadlineMs = 1000;

data::FederatedDataset make_fed(std::size_t clients = 4) {
  data::SyntheticImageConfig cfg = data::SyntheticImageConfig::femnist_like(4);
  cfg.height = 6;
  cfg.width = 6;
  data::SyntheticImageGenerator gen(cfg);
  data::PartitionConfig pcfg;
  pcfg.num_clients = clients;
  pcfg.min_samples = 10;
  pcfg.max_samples = 20;
  pcfg.test_samples = 4;
  Rng rng(7);
  return data::partition_majority_label(gen, pcfg, rng);
}

/// Forwards to a transport it does not own, so a ChaosTransport can damage
/// some of a worker's frames while the rest go out clean.
class Borrowed final : public net::Transport {
 public:
  explicit Borrowed(net::Transport& inner) : inner_(inner) {}
  net::TransportStatus send(const net::Frame& frame, int timeout_ms) override {
    return inner_.send(frame, timeout_ms);
  }
  net::TransportStatus send_raw(std::span<const std::uint8_t> encoded,
                                int timeout_ms) override {
    return inner_.send_raw(encoded, timeout_ms);
  }
  net::TransportStatus recv(net::Frame* out, int timeout_ms) override {
    return inner_.recv(out, timeout_ms);
  }
  void close() override {}
  std::string peer() const override { return inner_.peer(); }

 private:
  net::Transport& inner_;
};

/// What the aggregator sent upstream to settle one round.
struct Settled {
  std::vector<double> sum;
  net::SubtreeUpdateMsg trailer;
  std::size_t heartbeats = 0;  ///< Heartbeat frames ahead of the update
};

/// The params every hand-built round ships; small integers, so every
/// weighted sum below is exact in any order.
const std::vector<float> kParams = {1.0f, 2.0f, 3.0f, 4.0f};

/// One aggregator fronting both workers of a 2-worker federation (client c
/// lives on worker c % 2), its upstream played by the test.
class MidTierRig {
 public:
  explicit MidTierRig(int round_timeout_ms, int heartbeat_interval_ms = 0)
      : fed_(make_fed()), listener_(0) {
    hier::MidTierConfig config;
    config.topology = net::Topology(2);
    config.round_timeout_ms = round_timeout_ms;
    config.heartbeat_interval_ms = heartbeat_interval_ms;
    config.handshake_timeout_ms = kWaitMs;
    agg_ = std::make_unique<hier::MidTierAggregator>(
        config, [this](int timeout_ms) {
          auto transport = listener_.accept(timeout_ms);
          if (transport) accepted_.push_back(transport->peer());
          return transport;
        });
    auto pair = net::make_loopback_pair();
    root_ = std::move(pair.a);
    upstream_ = std::move(pair.b);
    thread_ = std::thread([this] {
      try {
        ok_ = agg_->run(*upstream_);
      } catch (const hier::FleetError& e) {
        error_ = e.what();
      }
    });
  }

  ~MidTierRig() {
    if (thread_.joinable()) finish();
  }

  /// A fresh TCP session to the aggregator's listener that has said nothing
  /// yet.
  std::unique_ptr<net::Transport> dial() {
    return net::connect_tcp("127.0.0.1", listener_.port());
  }

  /// A session that has run worker `w`'s whole handshake.
  std::unique_ptr<net::Transport> connect_worker(std::uint32_t w) {
    auto transport = dial();
    EXPECT_NE(transport, nullptr);
    if (transport) {
      EXPECT_TRUE(hier::send_worker_hello(*transport, fed_, w, 2));
    }
    return transport;
  }

  /// Connects both workers and consumes the subtree announcement upstream;
  /// returns the relayed Summary frames.
  std::vector<net::Frame> handshake() {
    workers_[0] = connect_worker(0);
    workers_[1] = connect_worker(1);
    std::vector<net::Frame> summaries;
    net::Frame frame;
    EXPECT_EQ(root_->recv(&frame, kWaitMs), net::TransportStatus::Ok);
    EXPECT_EQ(frame.type, net::MessageType::TopologyHello);
    const auto hello = net::decode_topology_hello(frame);
    EXPECT_EQ(hello.num_clients, fed_.clients.size());
    for (std::uint32_t s = 0; s < hello.num_clients; ++s) {
      EXPECT_EQ(root_->recv(&frame, kWaitMs), net::TransportStatus::Ok);
      EXPECT_EQ(frame.type, net::MessageType::Summary);
      summaries.push_back(frame);
    }
    return summaries;
  }

  /// Sends the round's SubtreeRound, its jobs for `clients` in the given
  /// order under `trace`; returns the TrainJob frames a flat root would
  /// send for them, in that order.
  std::vector<net::Frame> open_round(std::uint64_t epoch,
                                     const std::vector<std::uint32_t>& clients,
                                     const obs::TraceContext& trace = {}) {
    net::SubtreeRoundMsg round;
    round.epoch = epoch;
    round.recipe = fl::make_work_recipe(fl::LocalWorkConfig{});
    round.params = kParams;
    round.trace = trace;
    std::vector<net::Frame> expected;
    for (const std::uint32_t c : clients) {
      round.jobs.push_back({c, 0, 1.0});
      fl::TrainJobSpec spec;
      spec.client_id = c;
      spec.epoch = epoch;
      expected.push_back(net::encode_train_job(
          fl::make_train_job(spec, fl::LocalWorkConfig{}, kParams, trace)));
    }
    EXPECT_EQ(root_->send(net::encode_subtree_round(round)),
              net::TransportStatus::Ok);
    return expected;
  }

  /// The next TrainJob frame worker `w` receives.
  net::Frame job_frame(std::size_t w) {
    net::Frame frame;
    EXPECT_EQ(workers_[w]->recv(&frame, kWaitMs), net::TransportStatus::Ok);
    EXPECT_EQ(frame.type, net::MessageType::TrainJob);
    return frame;
  }

  /// The next TrainJob worker `w` receives.
  net::TrainJobMsg job(std::size_t w) {
    return net::decode_train_job(job_frame(w));
  }

  /// Client `c`'s Dense update for `epoch`: params + (c + 1), weight
  /// 10·(c + 1), and `loss` as its average loss.
  static net::Frame update(std::uint32_t c, std::uint64_t epoch,
                           double loss = 0.5) {
    net::ClientUpdateMsg msg;
    msg.epoch = epoch;
    msg.client_id = c;
    msg.average_loss = loss;
    msg.batches = 1;
    msg.sample_count = 10 * (c + 1);
    msg.update.kind = net::UpdateKind::Dense;
    msg.update.size = kParams.size();
    for (const float p : kParams) {
      msg.update.dense.push_back(p + static_cast<float>(c + 1));
    }
    return net::encode_client_update(msg);
  }

  /// Σ weight·updated over `clients`, as the aggregator must fold it.
  static std::vector<double> expected_sum(
      const std::vector<std::uint32_t>& clients) {
    std::vector<double> sum(kParams.size(), 0.0);
    for (const std::uint32_t c : clients) {
      for (std::size_t i = 0; i < sum.size(); ++i) {
        sum[i] += 10.0 * (c + 1) * (kParams[i] + (c + 1));
      }
    }
    return sum;
  }

  /// Reads the SubtreeUpdate that settles a round.
  Settled settle() {
    Settled out;
    for (;;) {
      net::Frame frame;
      const auto status = root_->recv(&frame, kWaitMs);
      EXPECT_EQ(status, net::TransportStatus::Ok);
      if (status != net::TransportStatus::Ok) return out;
      if (frame.type == net::MessageType::SubtreeUpdate) {
        out.trailer = net::decode_subtree_update(frame);
        out.sum = out.trailer.sum;
        return out;
      }
      if (frame.type == net::MessageType::Heartbeat) ++out.heartbeats;
    }
  }

  /// Shuts the subtree down from the root and joins the aggregator; its
  /// run() result.
  bool finish() {
    root_->send(net::encode_shutdown());
    for (auto& worker : workers_) worker.reset();
    thread_.join();
    return ok_;
  }

  /// Joins an aggregator that stopped on its own; the FleetError it threw,
  /// or "" if none.
  std::string stopped_with() {
    thread_.join();
    return error_;
  }

  const data::FederatedDataset& fed() const { return fed_; }
  const hier::MidTierAggregator& agg() const { return *agg_; }
  net::Transport& root() { return *root_; }
  /// The address of each connection the aggregator accepted, in order
  /// (read after the aggregator stopped).
  const std::vector<std::string>& accepted() const { return accepted_; }
  std::unique_ptr<net::Transport> workers_[2];

 private:
  data::FederatedDataset fed_;
  net::TcpListener listener_;
  std::vector<std::string> accepted_;
  std::string error_;
  std::unique_ptr<hier::MidTierAggregator> agg_;
  std::unique_ptr<net::Transport> root_;
  std::unique_ptr<net::Transport> upstream_;
  std::thread thread_;
  bool ok_ = false;
};

/// Asserts trailer row `i` names `client` and settled it as `delivered`,
/// or failed it with `failure`.
void expect_stat(const net::SubtreeUpdateMsg& trailer, std::size_t i,
                 std::uint32_t client, bool delivered,
                 fl::FailureKind failure = fl::FailureKind::Crash) {
  ASSERT_LT(i, trailer.stats.size());
  const net::SubtreeClientStat& stat = trailer.stats[i];
  EXPECT_EQ(stat.client_id, client) << "row " << i;
  EXPECT_EQ(stat.delivered != 0, delivered) << "client " << client;
  if (!delivered) {
    EXPECT_EQ(stat.failure, static_cast<std::uint8_t>(failure))
        << "client " << client;
  }
}

TEST(HierMidTier, ClosedWorkerFailsItsClientsAsCrash) {
  MidTierRig rig(/*round_timeout_ms=*/kWaitMs);
  rig.handshake();
  rig.open_round(1, {0, 1, 2, 3});
  rig.job(1);
  rig.job(1);
  rig.workers_[1].reset();  // worker 1 dies holding clients 1 and 3
  for (int i = 0; i < 2; ++i) {
    const auto job = rig.job(0);
    ASSERT_EQ(rig.workers_[0]->send(MidTierRig::update(job.client_id, 1)),
              net::TransportStatus::Ok);
  }
  const Settled settled = rig.settle();
  ASSERT_EQ(settled.trailer.stats.size(), 4u);
  expect_stat(settled.trailer, 0, 0, true);
  expect_stat(settled.trailer, 1, 1, false, fl::FailureKind::Crash);
  expect_stat(settled.trailer, 2, 2, true);
  expect_stat(settled.trailer, 3, 3, false, fl::FailureKind::Crash);
  EXPECT_EQ(settled.trailer.weight, 10.0 + 30.0);
  EXPECT_EQ(settled.sum, MidTierRig::expected_sum({0, 2}));
  EXPECT_TRUE(rig.finish());
  EXPECT_EQ(rig.agg().stats().rounds, 1u);
  EXPECT_EQ(rig.agg().stats().folded, 2u);
}

TEST(HierMidTier, CorruptFrameFailsTheOldestOutstandingClient) {
  MidTierRig rig(/*round_timeout_ms=*/kWaitMs);
  rig.handshake();
  rig.open_round(1, {0, 1, 2, 3});
  // Worker 0's first reply (client 0's) arrives CRC-bad; its second is
  // clean.
  net::ChaosOptions chaos;
  chaos.corrupt_rate = 1.0;
  auto damaging =
      net::wrap_chaos(std::make_unique<Borrowed>(*rig.workers_[0]), chaos);
  EXPECT_EQ(rig.job(0).client_id, 0u);
  EXPECT_EQ(rig.job(0).client_id, 2u);
  ASSERT_EQ(damaging->send(MidTierRig::update(0, 1)), net::TransportStatus::Ok);
  ASSERT_EQ(rig.workers_[0]->send(MidTierRig::update(2, 1)),
            net::TransportStatus::Ok);
  for (int i = 0; i < 2; ++i) {
    const auto job = rig.job(1);
    ASSERT_EQ(rig.workers_[1]->send(MidTierRig::update(job.client_id, 1)),
              net::TransportStatus::Ok);
  }
  const Settled settled = rig.settle();
  ASSERT_EQ(settled.trailer.stats.size(), 4u);
  expect_stat(settled.trailer, 0, 0, false, fl::FailureKind::CorruptUpdate);
  expect_stat(settled.trailer, 1, 1, true);
  expect_stat(settled.trailer, 2, 2, true);
  expect_stat(settled.trailer, 3, 3, true);
  EXPECT_EQ(settled.sum, MidTierRig::expected_sum({1, 2, 3}));
  EXPECT_TRUE(rig.finish());
}

TEST(HierMidTier, DeadlineFailsStragglersAsTimeoutAndFoldsArrivals) {
  MidTierRig rig(kDeadlineMs);
  rig.handshake();
  rig.open_round(1, {0, 1, 2, 3});
  // Slots 0 and 3 never answer; slot 0 is the frontier, so the arrivals
  // behind it must still fold when the deadline fails the stragglers.
  rig.job(0);
  rig.job(0);
  rig.job(1);
  rig.job(1);
  ASSERT_EQ(rig.workers_[0]->send(MidTierRig::update(2, 1)),
            net::TransportStatus::Ok);
  ASSERT_EQ(rig.workers_[1]->send(MidTierRig::update(1, 1)),
            net::TransportStatus::Ok);
  const Settled settled = rig.settle();
  ASSERT_EQ(settled.trailer.stats.size(), 4u);
  expect_stat(settled.trailer, 0, 0, false, fl::FailureKind::Timeout);
  expect_stat(settled.trailer, 1, 1, true);
  expect_stat(settled.trailer, 2, 2, true);
  expect_stat(settled.trailer, 3, 3, false, fl::FailureKind::Timeout);
  EXPECT_EQ(settled.trailer.weight, 20.0 + 30.0);
  EXPECT_EQ(settled.sum, MidTierRig::expected_sum({1, 2}));
  EXPECT_TRUE(rig.finish());
}

// A round is served once: a duplicated or stale SubtreeRound reaches no
// worker, and the next new round is served as usual.
TEST(HierMidTier, StaleAndDuplicatedRoundsAreNotServedAgain) {
  MidTierRig rig(/*round_timeout_ms=*/kWaitMs);
  rig.handshake();
  rig.open_round(2, {0, 1});
  for (std::uint32_t c = 0; c < 2; ++c) {
    EXPECT_EQ(rig.job(c).epoch, 2u);
    ASSERT_EQ(rig.workers_[c]->send(MidTierRig::update(c, 2)),
              net::TransportStatus::Ok);
  }
  EXPECT_EQ(rig.settle().trailer.epoch, 2u);

  rig.open_round(2, {0, 1});  // duplicated
  rig.open_round(1, {0, 1});  // stale
  rig.open_round(3, {1});
  EXPECT_EQ(rig.job(1).epoch, 3u);
  ASSERT_EQ(rig.workers_[1]->send(MidTierRig::update(1, 3)),
            net::TransportStatus::Ok);
  const Settled settled = rig.settle();
  EXPECT_EQ(settled.trailer.epoch, 3u);
  ASSERT_EQ(settled.trailer.stats.size(), 1u);
  expect_stat(settled.trailer, 0, 1, true);
  net::Frame frame;
  EXPECT_EQ(rig.workers_[0]->recv(&frame, 100), net::TransportStatus::Timeout);
  EXPECT_TRUE(rig.finish());
  EXPECT_EQ(rig.agg().stats().rounds, 2u);
}

TEST(HierMidTier, OnlyTheClientsOwnWorkerCanSettleIt) {
  MidTierRig rig(/*round_timeout_ms=*/kWaitMs);
  rig.handshake();
  rig.open_round(1, {0, 1});
  rig.job(0);
  rig.job(1);
  // Worker 1 answers for worker 0's client first; that must not count.
  ASSERT_EQ(rig.workers_[1]->send(MidTierRig::update(0, 1, /*loss=*/99.0)),
            net::TransportStatus::Ok);
  ASSERT_EQ(rig.workers_[1]->send(MidTierRig::update(1, 1)),
            net::TransportStatus::Ok);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(rig.workers_[0]->send(MidTierRig::update(0, 1)),
            net::TransportStatus::Ok);
  const Settled settled = rig.settle();
  ASSERT_EQ(settled.trailer.stats.size(), 2u);
  expect_stat(settled.trailer, 0, 0, true);
  EXPECT_EQ(settled.trailer.stats[0].average_loss, 0.5);
  expect_stat(settled.trailer, 1, 1, true);
  EXPECT_EQ(settled.sum, MidTierRig::expected_sum({0, 1}));
  EXPECT_TRUE(rig.finish());
}

// The aggregator's heartbeat runs on its own thread, so the root keeps
// hearing from it while it waits on a slow subtree.
TEST(HierMidTier, HeartbeatsReachTheRootWhileTheRoundCollects) {
  MidTierRig rig(/*round_timeout_ms=*/kWaitMs, /*heartbeat_interval_ms=*/10);
  rig.handshake();
  rig.open_round(1, {0, 1});
  rig.job(0);
  rig.job(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  for (std::uint32_t c = 0; c < 2; ++c) {
    ASSERT_EQ(rig.workers_[c]->send(MidTierRig::update(c, 1)),
              net::TransportStatus::Ok);
  }
  const Settled settled = rig.settle();
  EXPECT_GT(settled.heartbeats, 0u);
  ASSERT_EQ(settled.trailer.stats.size(), 2u);
  expect_stat(settled.trailer, 0, 0, true);
  expect_stat(settled.trailer, 1, 1, true);
  EXPECT_TRUE(rig.finish());
}

// Each worker receives, byte for byte, the TrainJob a flat root would send
// it for the SubtreeRound's job, untraced and traced (the trace trailer
// rides along whatever the aggregator's own trace flags); the workers'
// summaries reach the root exactly as sent.
TEST(HierMidTier, RelaysTrainJobsAndSummariesByteForByte) {
  MidTierRig rig(/*round_timeout_ms=*/kWaitMs);
  const std::vector<net::Frame> relayed = rig.handshake();
  std::vector<net::Frame> expected;
  for (std::uint32_t w = 0; w < 2; ++w) {
    for (std::size_t c = w; c < rig.fed().clients.size(); c += 2) {
      expected.push_back(net::encode_summary(stats::encode_summary_msg(
          static_cast<std::uint32_t>(c),
          stats::summarize_response(rig.fed().clients[c].train))));
    }
  }
  ASSERT_EQ(relayed.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(relayed[i].type, expected[i].type) << "summary " << i;
    EXPECT_EQ(relayed[i].payload, expected[i].payload) << "summary " << i;
  }

  const obs::TraceContext traced{.trace_id = 0x5eed, .parent_span = 77,
                                 .round = 2};
  for (const obs::TraceContext& trace : {obs::TraceContext{}, traced}) {
    SCOPED_TRACE(trace.valid() ? "traced" : "untraced");
    const std::uint64_t epoch = trace.valid() ? 2 : 1;
    const std::vector<net::Frame> sent =
        rig.open_round(epoch, {0, 1}, trace);
    for (std::size_t w = 0; w < 2; ++w) {
      const net::Frame frame = rig.job_frame(w);
      EXPECT_EQ(frame.payload, sent[w].payload) << "client " << w;
      ASSERT_EQ(rig.workers_[w]->send(MidTierRig::update(
                    static_cast<std::uint32_t>(w), epoch)),
                net::TransportStatus::Ok);
    }
    EXPECT_EQ(rig.settle().trailer.epoch, epoch);
  }
  EXPECT_TRUE(rig.finish());
}

// Four bad downstream handshakes. Each stops the aggregator with a
// FleetError naming the offending connection before anything goes
// upstream, as a bad peer stops the root's own fleet at startup: a launcher
// bug must not start a short subtree.
TEST(HierMidTierHandshake, BadInputStopsTheAggregatorNamingThePeer) {
  const std::vector<std::string> cases = {"malformed summary",
                                          "foreign-client summary",
                                          "out-of-subtree hello",
                                          "reconnect during handshake"};
  for (const std::string& input : cases) {
    SCOPED_TRACE(input);
    MidTierRig rig(/*round_timeout_ms=*/kWaitMs);
    auto bad = rig.dial();
    ASSERT_NE(bad, nullptr);
    std::unique_ptr<net::Transport> again;
    std::string expected = "refused: ";
    if (input == "malformed summary") {
      ASSERT_EQ(bad->send(net::encode_hello({0, 2})), net::TransportStatus::Ok);
      net::Frame garbage;
      garbage.type = net::MessageType::Summary;
      garbage.payload = {1, 2, 3};
      ASSERT_EQ(bad->send(garbage), net::TransportStatus::Ok);
      expected += "malformed frame";
    } else if (input == "foreign-client summary") {
      // Client 1 lives on worker 1, not worker 0.
      ASSERT_EQ(bad->send(net::encode_hello({0, 2})), net::TransportStatus::Ok);
      ASSERT_EQ(bad->send(net::encode_summary(stats::encode_summary_msg(
                    1, stats::summarize_response(rig.fed().clients[1].train)))),
                net::TransportStatus::Ok);
      expected += "worker 0: summary for client 1, which it does not host";
    } else if (input == "out-of-subtree hello") {
      ASSERT_EQ(bad->send(net::encode_hello({2, 0})), net::TransportStatus::Ok);
      expected += "bad worker id 2";
    } else {
      ASSERT_TRUE(hier::send_worker_hello(*bad, rig.fed(), 0, 2));
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      again = rig.connect_worker(0);
      expected = "duplicate worker id 0 from ";
    }
    const std::string error = rig.stopped_with();
    ASSERT_FALSE(rig.accepted().empty());
    // The refused connection is the last one accepted.
    const std::string peer = rig.accepted().back();
    if (input == "reconnect during handshake") {
      EXPECT_NE(error.find(expected + peer), std::string::npos) << error;
    } else {
      EXPECT_NE(error.find("handshake with " + peer + " " + expected),
                std::string::npos)
          << error;
    }
    // Nothing went upstream: no TopologyHello, no summary.
    net::Frame frame;
    EXPECT_EQ(rig.root().recv(&frame, 200), net::TransportStatus::Timeout);
  }
}

}  // namespace
}  // namespace haccs
