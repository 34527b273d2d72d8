// Tests for the hierarchical aggregation tree (DESIGN.md §5j): the tree wire
// codecs, the 3-tier root→aggregator→worker pipeline's bit-identity with the
// flat grouped dispatcher, salvage and tear on aggregator loss, trailer
// settlement, the tree root's config refusals, StatusServer request parsing,
// and the live join/leave re-cluster tracker.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/haccs_config.hpp"
#include "src/core/haccs_selector.hpp"
#include "src/core/haccs_system.hpp"
#include "src/core/pipeline.hpp"
#include "src/fl/engine.hpp"
#include "src/fl/net_driver.hpp"
#include "src/hier/fleet.hpp"
#include "src/hier/mid_tier.hpp"
#include "src/hier/tree_dispatcher.hpp"
#include "src/net/loopback.hpp"
#include "src/net/messages.hpp"
#include "src/net/status.hpp"
#include "src/net/tcp.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"
#include "src/select/random_selector.hpp"

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

fl::EngineConfig make_engine(std::size_t rounds = 3) {
  fl::EngineConfig cfg;
  cfg.rounds = rounds;
  cfg.clients_per_round = 3;
  cfg.eval_every = 3;
  cfg.local.sgd.learning_rate = 0.08;
  cfg.seed = 23;
  return cfg;
}

std::string record_json_no_phase(const fl::RoundRecord& record) {
  fl::RoundRecord copy = record;
  copy.phase = fl::PhaseTimings{};
  return fl::round_event_json("sync", copy);
}

// ---------------------------------------------------------------------------
// HierCodec: tree wire messages

TEST(HierCodec, TopologyHelloRoundTrip) {
  net::TopologyHelloMsg msg;
  msg.agg_id = 3;
  msg.num_aggs = 8;
  msg.worker_begin = 96;
  msg.worker_end = 128;
  msg.num_clients = 4096;
  const net::TopologyHelloMsg back =
      net::decode_topology_hello(net::encode_topology_hello(msg));
  EXPECT_EQ(back.agg_id, 3u);
  EXPECT_EQ(back.num_aggs, 8u);
  EXPECT_EQ(back.worker_begin, 96u);
  EXPECT_EQ(back.worker_end, 128u);
  EXPECT_EQ(back.num_clients, 4096u);
}

TEST(HierCodec, SubtreeChunkRoundTripPreservesBits) {
  net::SubtreeChunkMsg msg;
  msg.epoch = 41;
  msg.agg_id = 2;
  msg.offset = 16384;
  // Edge-case doubles: the fold must be bit-exact, so the codec must be too.
  msg.data = {-0.0, 4.9406564584124654e-324, 1.0 / 3.0,
              -1.7976931348623157e308, 42.0};
  const net::SubtreeChunkMsg back =
      net::decode_subtree_chunk(net::encode_subtree_chunk(msg));
  EXPECT_EQ(back.epoch, 41u);
  EXPECT_EQ(back.agg_id, 2u);
  EXPECT_EQ(back.offset, 16384u);
  ASSERT_EQ(back.data.size(), msg.data.size());
  EXPECT_EQ(std::memcmp(back.data.data(), msg.data.data(),
                        msg.data.size() * sizeof(double)),
            0);
}

TEST(HierCodec, SubtreeUpdateRoundTrip) {
  net::SubtreeUpdateMsg msg;
  msg.epoch = 7;
  msg.agg_id = 1;
  msg.weight = 123.0;
  msg.n_chunks = 9;
  net::SubtreeClientStat ok;
  ok.client_id = 11;
  ok.delivered = 1;
  ok.average_loss = 0.625;
  ok.final_loss = 0.5;
  ok.batches = 17;
  ok.sample_count = 64;
  net::SubtreeClientStat failed;
  failed.client_id = 15;
  failed.delivered = 0;
  failed.failure = static_cast<std::uint8_t>(fl::FailureKind::Timeout);
  msg.stats = {ok, failed};

  const net::SubtreeUpdateMsg back =
      net::decode_subtree_update(net::encode_subtree_update(msg));
  EXPECT_EQ(back.epoch, 7u);
  EXPECT_EQ(back.agg_id, 1u);
  EXPECT_EQ(back.weight, 123.0);
  EXPECT_EQ(back.n_chunks, 9u);
  ASSERT_EQ(back.stats.size(), 2u);
  EXPECT_EQ(back.stats[0].client_id, 11u);
  EXPECT_EQ(back.stats[0].delivered, 1);
  EXPECT_EQ(back.stats[0].average_loss, 0.625);
  EXPECT_EQ(back.stats[0].final_loss, 0.5);
  EXPECT_EQ(back.stats[0].batches, 17u);
  EXPECT_EQ(back.stats[0].sample_count, 64u);
  EXPECT_EQ(back.stats[1].client_id, 15u);
  EXPECT_EQ(back.stats[1].delivered, 0);
  EXPECT_EQ(back.stats[1].failure,
            static_cast<std::uint8_t>(fl::FailureKind::Timeout));
}

// ---------------------------------------------------------------------------
// HierTree: the full 3-tier pipeline

/// An in-process 3-tier federation: the root talks to `aggs` MidTierAggregator
/// threads over loopback pairs; each aggregator fronts its slice of `workers`
/// WorkerLoop threads over real TCP through its own TcpListener. The root
/// side of the handshake runs through the library fleet, exactly as
/// haccs_server's does.
struct TreeHarness {
  TreeHarness(const data::FederatedDataset& fed,
              std::function<nn::Sequential()> factory, std::size_t num_aggs,
              std::size_t num_workers, const fl::EngineConfig& engine)
      : fleet_(
            [&] {
              hier::FleetConfig config;
              config.num_workers = num_workers;
              config.num_aggs = num_aggs;
              config.num_clients = fed.clients.size();
              config.io_timeout_ms = 30000;
              return config;
            }(),
            [this](int) -> std::unique_ptr<net::Transport> {
              if (root_ends_.empty()) return nullptr;
              auto transport = std::move(root_ends_.front());
              root_ends_.pop_front();
              return transport;
            }) {
    const std::size_t per = num_workers / num_aggs;
    for (std::size_t a = 0; a < num_aggs; ++a) {
      hier::MidTierConfig config;
      config.agg_id = static_cast<std::uint32_t>(a);
      config.num_aggs = static_cast<std::uint32_t>(num_aggs);
      config.num_workers = static_cast<std::uint32_t>(num_workers);
      // Small chunks force multi-chunk settles, exercising the root's
      // gated out-of-order fold rather than a trivial one-chunk path.
      config.chunk_params = 64;
      config.max_update_norm = engine.max_update_norm;
      config.round_timeout_ms = 60000;
      listeners_.push_back(std::make_unique<net::TcpListener>(0));
      aggs_.push_back(std::make_unique<hier::MidTierAggregator>(
          config, [listener = listeners_.back().get()](int timeout_ms) {
            return listener->accept(timeout_ms);
          }));
      auto pair = net::make_loopback_pair();
      root_ends_.push_back(std::move(pair.a));
      agg_ends_.push_back(std::move(pair.b));
    }
    for (std::size_t a = 0; a < num_aggs; ++a) {
      threads_.emplace_back([this, a] {
        agg_ok_[a] = aggs_[a]->run(*agg_ends_[a]);
      });
    }
    for (std::size_t w = 0; w < num_workers; ++w) {
      threads_.emplace_back([this, &fed, factory, w, per, num_workers] {
        auto transport =
            net::connect_tcp("127.0.0.1", listeners_[w / per]->port());
        hier::send_worker_hello(*transport, fed,
                                static_cast<std::uint32_t>(w),
                                static_cast<std::uint32_t>(num_workers));
        fl::WorkerLoopConfig config;
        config.worker_id = static_cast<std::uint32_t>(w);
        fl::WorkerLoop loop(fed, factory, config);
        loop.serve(*transport);
      });
    }
    try {
      fleet_.accept_all(30000);
    } catch (const hier::FleetError& e) {
      ADD_FAILURE() << e.what();
    }
    EXPECT_TRUE(fleet_.have_all_summaries());
  }

  std::vector<net::Transport*> root_transports() const {
    return fleet_.transports();
  }

  void shutdown_and_join() {
    fleet_.shut_down(net::EvalReportMsg{}, nullptr);
    root_ends_.clear();  // never admitted: closing them frees their agg
    for (auto& thread : threads_) thread.join();
    threads_.clear();
  }

  ~TreeHarness() {
    if (!threads_.empty()) shutdown_and_join();
  }

  std::deque<std::unique_ptr<net::Transport>> root_ends_;
  std::vector<std::unique_ptr<net::Transport>> agg_ends_;
  std::vector<std::unique_ptr<net::TcpListener>> listeners_;
  std::vector<std::unique_ptr<hier::MidTierAggregator>> aggs_;
  std::vector<std::thread> threads_;
  bool agg_ok_[8] = {};
  hier::Fleet fleet_;
};

// The headline §5j guarantee: a 3-tier run (root + 2 aggregators + 4
// workers) is bit-identical to the flat dispatcher running with
// agg_groups = 2 — per-round JSON byte equality AND bitwise-equal final
// parameters — for Dense, TopK and Int8 updates alike, since the mid tier
// settles and folds with the flat root's own code. (Grouped-flat vs
// classic-flat differ in f64 fold association; the pinned guarantee is
// tree ≡ grouped-flat.)
TEST(HierTree, ThreeTierRunBitIdenticalToGroupedFlat) {
  const auto fed = make_fed();
  const auto factory = core::default_model_factory(fed, 99);

  auto run = [&](bool tree, fl::CompressionKind kind) {
    fl::EngineConfig engine = make_engine(3);
    engine.compression.kind = kind;
    std::vector<float> final_params;
    engine.on_checkpoint = [&](std::size_t,
                               const fl::EngineConfig::RunStateFactory& make) {
      final_params = make().global_params;
    };

    std::vector<std::string> lines;
    if (tree) {
      TreeHarness harness(fed, factory, /*num_aggs=*/2, /*num_workers=*/4,
                          engine);

      fl::TransportDispatcherConfig config;
      config.work.local = engine.local;
      config.work.compression = engine.compression;
      config.recv_timeout_ms = 120000;
      hier::TreeDispatcher dispatcher(harness.root_transports(), config,
                                      /*num_workers=*/4);
      engine.dispatcher = &dispatcher;

      fl::FederatedTrainer trainer(fed, factory, engine);
      select::RandomSelector selector;
      const auto history = trainer.run(selector);
      for (const auto& record : history.records()) {
        lines.push_back(record_json_no_phase(record));
      }
      harness.shutdown_and_join();
      EXPECT_TRUE(harness.agg_ok_[0]);
      EXPECT_TRUE(harness.agg_ok_[1]);
    } else {
      fl::LoopbackCluster cluster(fed, factory, 4);
      fl::TransportDispatcherConfig config;
      config.work.local = engine.local;
      config.work.compression = engine.compression;
      config.recv_timeout_ms = 120000;
      config.agg_groups = 2;
      config.max_update_norm = engine.max_update_norm;
      fl::TransportDispatcher dispatcher(cluster.server_transports(), config);
      engine.dispatcher = &dispatcher;

      fl::FederatedTrainer trainer(fed, factory, engine);
      select::RandomSelector selector;
      const auto history = trainer.run(selector);
      for (const auto& record : history.records()) {
        lines.push_back(record_json_no_phase(record));
      }
    }
    return std::make_pair(lines, final_params);
  };

  for (const auto kind :
       {fl::CompressionKind::None, fl::CompressionKind::TopK,
        fl::CompressionKind::Int8}) {
    SCOPED_TRACE("compression kind " + std::to_string(static_cast<int>(kind)));
    const auto [flat_lines, flat_params] = run(/*tree=*/false, kind);
    const auto [tree_lines, tree_params] = run(/*tree=*/true, kind);

    ASSERT_EQ(tree_lines.size(), flat_lines.size());
    for (std::size_t r = 0; r < tree_lines.size(); ++r) {
      EXPECT_EQ(tree_lines[r], flat_lines[r]) << "round " << r;
    }
    ASSERT_EQ(tree_params.size(), flat_params.size());
    ASSERT_FALSE(tree_params.empty());
    EXPECT_EQ(std::memcmp(tree_params.data(), flat_params.data(),
                          flat_params.size() * sizeof(float)),
              0);
  }
}

/// Emulates one mid-tier aggregator for a single round: receives the
/// SelectNotice + TrainJobs, then settles with one chunk + trailer where
/// every client "trained" to params + 1. `extra_stats` names more clients
/// the trailer claims as delivered (a misbehaving aggregator).
void emulate_agg_round(net::Transport& transport, std::uint32_t agg_id,
                       const std::vector<std::uint32_t>& extra_stats = {}) {
  net::Frame frame;
  ASSERT_EQ(transport.recv(&frame, 10000), net::TransportStatus::Ok);
  ASSERT_EQ(frame.type, net::MessageType::SelectNotice);
  const net::SelectNoticeMsg notice = net::decode_select_notice(frame);

  std::vector<float> params;
  for (std::size_t i = 0; i < notice.clients.size(); ++i) {
    ASSERT_EQ(transport.recv(&frame, 10000), net::TransportStatus::Ok);
    ASSERT_EQ(frame.type, net::MessageType::TrainJob);
    params = net::decode_train_job(frame).params;
  }

  net::SubtreeChunkMsg chunk;
  chunk.epoch = notice.epoch;
  chunk.agg_id = agg_id;
  chunk.offset = 0;
  const double weight = 10.0 * notice.clients.size();
  for (const float p : params) {
    chunk.data.push_back(weight * (static_cast<double>(p) + 1.0));
  }
  ASSERT_EQ(transport.send(net::encode_subtree_chunk(chunk), 10000),
            net::TransportStatus::Ok);

  net::SubtreeUpdateMsg update;
  update.epoch = notice.epoch;
  update.agg_id = agg_id;
  update.weight = weight;
  update.n_chunks = 1;
  std::vector<std::uint32_t> named = notice.clients;
  named.insert(named.end(), extra_stats.begin(), extra_stats.end());
  for (const std::uint32_t c : named) {
    net::SubtreeClientStat stat;
    stat.client_id = c;
    stat.delivered = 1;
    stat.sample_count = 10;
    stat.batches = 1;
    update.stats.push_back(stat);
  }
  ASSERT_EQ(transport.send(net::encode_subtree_update(update), 10000),
            net::TransportStatus::Ok);
}

// An aggregator that dies before contributing anything is salvaged: its
// slots fail as Crash, the surviving subtree's round still commits.
TEST(HierTree, DeadAggregatorIsSalvagedNotTorn) {
  obs::set_metrics_enabled(true);
  auto live = net::make_loopback_pair();
  auto dead = net::make_loopback_pair();

  const double salvaged_before =
      obs::Registry::global().counter("hier_aggs_salvaged_total").value();

  fl::TransportDispatcherConfig config;
  config.recv_timeout_ms = 10000;
  hier::TreeDispatcher dispatcher({live.a.get(), dead.a.get()}, config,
                                  /*num_workers=*/4);

  std::thread agg([&] { emulate_agg_round(*live.b, 0); });
  // Aggregator 1 accepts its round and then dies before contributing a
  // single chunk — the salvage case (vs the torn case after contributing).
  std::thread dying([&] {
    net::Frame frame;
    dead.b->recv(&frame, 10000);  // SelectNotice
    dead.b->recv(&frame, 10000);  // its one TrainJob
    dead.b.reset();
  });

  // client 0 -> worker 0 -> aggregator 0; client 2 -> worker 2 -> agg 1.
  std::vector<fl::TrainJobSpec> jobs(2);
  jobs[0].slot = 0;
  jobs[0].client_id = 0;
  jobs[1].slot = 1;
  jobs[1].client_id = 2;
  const std::vector<float> params = {1.0f, 2.0f, 3.0f};
  std::vector<fl::TrainOutcome> outcomes(2);
  dispatcher.execute(jobs, params, outcomes);
  agg.join();
  dying.join();

  EXPECT_TRUE(outcomes[0].delivered);
  EXPECT_TRUE(outcomes[0].pre_aggregated);
  EXPECT_EQ(outcomes[0].weight, 10.0);
  EXPECT_FALSE(outcomes[1].delivered);
  EXPECT_EQ(outcomes[1].failure, fl::FailureKind::Crash);
  EXPECT_FALSE(dispatcher.agg_alive(1));
  EXPECT_TRUE(dispatcher.agg_alive(0));

  const auto* partials = dispatcher.partials();
  ASSERT_NE(partials, nullptr);
  ASSERT_EQ(partials->size(), 1u);
  EXPECT_EQ((*partials)[0].weight, 10.0);
  EXPECT_EQ((*partials)[0].updates, 1u);
  ASSERT_EQ((*partials)[0].sum.size(), params.size());
  EXPECT_EQ((*partials)[0].sum[0], 10.0 * 2.0);  // weight * (param + 1)

  EXPECT_EQ(
      obs::Registry::global().counter("hier_aggs_salvaged_total").value(),
      salvaged_before + 1.0);
  obs::set_metrics_enabled(false);
}

/// The two-job round the emulated-aggregator tests run: client 0 routes to
/// aggregator 0 and client 2 to aggregator 1 (4 workers, 2 aggregators).
std::vector<fl::TrainJobSpec> two_subtree_jobs() {
  std::vector<fl::TrainJobSpec> jobs(2);
  jobs[0].slot = 0;
  jobs[0].client_id = 0;
  jobs[1].slot = 1;
  jobs[1].client_id = 2;
  return jobs;
}

// An aggregator that dies after one of its chunks folded tears the round:
// the shared accumulator cannot be unfolded, so every slot fails as Crash
// and the merged partial carries no weight.
TEST(HierTree, AggregatorLostAfterFoldingTearsTheRound) {
  obs::set_metrics_enabled(true);
  auto folding = net::make_loopback_pair();
  auto healthy = net::make_loopback_pair();
  const double torn_before =
      obs::Registry::global().counter("hier_rounds_torn_total").value();

  fl::TransportDispatcherConfig config;
  config.recv_timeout_ms = 10000;
  hier::TreeDispatcher dispatcher({folding.a.get(), healthy.a.get()}, config,
                                  /*num_workers=*/4);

  // Aggregator 0 folds the first two of three elements, then dies. It has
  // no predecessor, so its chunk folds as soon as it lands.
  std::thread dying([&] {
    net::Frame frame;
    folding.b->recv(&frame, 10000);  // SelectNotice
    folding.b->recv(&frame, 10000);  // its one TrainJob
    net::SubtreeChunkMsg chunk;
    chunk.epoch = 0;
    chunk.offset = 0;
    chunk.data = {1.0, 2.0};
    folding.b->send(net::encode_subtree_chunk(chunk), 10000);
    folding.b.reset();
  });
  std::thread agg([&] { emulate_agg_round(*healthy.b, 1); });

  const auto jobs = two_subtree_jobs();
  const std::vector<float> params = {1.0f, 2.0f, 3.0f};
  std::vector<fl::TrainOutcome> outcomes(2);
  dispatcher.execute(jobs, params, outcomes);
  dying.join();
  agg.join();

  for (const fl::TrainOutcome& out : outcomes) {
    EXPECT_FALSE(out.delivered);
    EXPECT_FALSE(out.pre_aggregated);
    EXPECT_EQ(out.failure, fl::FailureKind::Crash);
  }
  const auto* partials = dispatcher.partials();
  ASSERT_NE(partials, nullptr);
  ASSERT_EQ(partials->size(), 1u);
  EXPECT_EQ((*partials)[0].weight, 0.0);
  EXPECT_EQ((*partials)[0].updates, 0u);
  EXPECT_EQ(obs::Registry::global().counter("hier_rounds_torn_total").value(),
            torn_before + 1.0);
  obs::set_metrics_enabled(false);
}

// An aggregator that stays connected but silent past the heartbeat timeout
// is declared dead; it folded nothing, so it is salvaged, not torn.
TEST(HierTree, SilentAggregatorIsDeclaredDeadAndSalvaged) {
  obs::set_metrics_enabled(true);
  auto live = net::make_loopback_pair();
  auto silent = net::make_loopback_pair();
  const double salvaged_before =
      obs::Registry::global().counter("hier_aggs_salvaged_total").value();
  const double missed_before =
      obs::Registry::global().counter("heartbeats_missed_total").value();

  fl::TransportDispatcherConfig config;
  config.recv_timeout_ms = 10000;
  config.heartbeat_timeout_ms = 250;
  hier::TreeDispatcher dispatcher({live.a.get(), silent.a.get()}, config,
                                  /*num_workers=*/4);

  std::thread agg([&] { emulate_agg_round(*live.b, 0); });
  const auto jobs = two_subtree_jobs();
  const std::vector<float> params = {1.0f, 2.0f, 3.0f};
  std::vector<fl::TrainOutcome> outcomes(2);
  const auto started = std::chrono::steady_clock::now();
  dispatcher.execute(jobs, params, outcomes);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  agg.join();

  // Declared dead by the heartbeat deadline, long before the budget.
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  EXPECT_TRUE(outcomes[0].delivered);
  EXPECT_FALSE(outcomes[1].delivered);
  EXPECT_EQ(outcomes[1].failure, fl::FailureKind::Crash);
  EXPECT_TRUE(dispatcher.agg_alive(0));
  EXPECT_FALSE(dispatcher.agg_alive(1));
  const auto* partials = dispatcher.partials();
  ASSERT_NE(partials, nullptr);
  EXPECT_EQ((*partials)[0].weight, 10.0);
  EXPECT_EQ((*partials)[0].updates, 1u);
  EXPECT_EQ(
      obs::Registry::global().counter("hier_aggs_salvaged_total").value(),
      salvaged_before + 1.0);
  // The shared collection loop counts a silent aggregator like a silent
  // worker.
  EXPECT_EQ(
      obs::Registry::global().counter("heartbeats_missed_total").value(),
      missed_before + 1.0);
  obs::set_metrics_enabled(false);
}

// A trailer settles only the clients routed to the aggregator that sent it,
// each once: naming the other subtree's client, or its own client twice,
// must neither deliver that client nor inflate the update count.
TEST(HierTree, TrailerSettlesOnlyItsOwnSubtreeOnce) {
  auto live = net::make_loopback_pair();
  auto dead = net::make_loopback_pair();
  fl::TransportDispatcherConfig config;
  config.recv_timeout_ms = 10000;
  hier::TreeDispatcher dispatcher({live.a.get(), dead.a.get()}, config,
                                  /*num_workers=*/4);

  // Aggregator 0's trailer names client 0 again and client 2, which routes
  // to aggregator 1 — and aggregator 1 dies without settling anything.
  std::thread agg([&] { emulate_agg_round(*live.b, 0, {0, 2}); });
  std::thread dying([&] {
    net::Frame frame;
    dead.b->recv(&frame, 10000);  // SelectNotice
    dead.b->recv(&frame, 10000);  // its one TrainJob
    dead.b.reset();
  });

  const auto jobs = two_subtree_jobs();
  const std::vector<float> params = {1.0f, 2.0f, 3.0f};
  std::vector<fl::TrainOutcome> outcomes(2);
  dispatcher.execute(jobs, params, outcomes);
  agg.join();
  dying.join();

  EXPECT_TRUE(outcomes[0].delivered);
  EXPECT_FALSE(outcomes[1].delivered);
  EXPECT_EQ(outcomes[1].failure, fl::FailureKind::Crash);
  const auto* partials = dispatcher.partials();
  ASSERT_NE(partials, nullptr);
  EXPECT_EQ((*partials)[0].updates, 1u);
}

// The tree takes the flat root's config; each field only a flat root can
// honour makes the constructor throw, naming the field.
TEST(HierTree, UnsupportedConfigFieldIsRejectedByName) {
  auto a0 = net::make_loopback_pair();
  auto a1 = net::make_loopback_pair();
  const std::vector<net::Transport*> aggs = {a0.a.get(), a1.a.get()};
  const std::vector<
      std::pair<std::string, std::function<void(fl::TransportDispatcherConfig&)>>>
      cases = {
          {"quorum_fraction",
           [](fl::TransportDispatcherConfig& c) { c.quorum_fraction = 0.5; }},
          {"reacquire",
           [](fl::TransportDispatcherConfig& c) {
             c.reacquire = [](std::size_t) -> net::Transport* {
               return nullptr;
             };
           }},
          {"agg_groups",
           [](fl::TransportDispatcherConfig& c) { c.agg_groups = 2; }},
      };
  for (const auto& [field, set] : cases) {
    fl::TransportDispatcherConfig config;
    set(config);
    try {
      hier::TreeDispatcher dispatcher(aggs, config, /*num_workers=*/4);
      ADD_FAILURE() << field << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }
  // The defaults are all honoured.
  EXPECT_NO_THROW(
      hier::TreeDispatcher(aggs, fl::TransportDispatcherConfig{}, 4));
}

// ---------------------------------------------------------------------------
// StatusParsing: the exposition server's request handling (satellite of §5j —
// the endpoint every tier now exposes)

int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  return fd;
}

void raw_send(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: the server may legitimately respond-and-close before the
    // whole oversized request is written; EPIPE must not kill the test.
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return;
    sent += static_cast<std::size_t>(n);
  }
}

std::string raw_read_all(int fd) {
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  return response;
}

class StatusParsing : public ::testing::Test {
 protected:
  StatusParsing()
      : server_(0, {.metrics_text = [] { return std::string("m 1\n"); },
                    .status_json = [] { return std::string("{\"ok\":true}"); }}) {}

  std::string request(const std::string& bytes) {
    const int fd = raw_connect(server_.port());
    raw_send(fd, bytes);
    const std::string response = raw_read_all(fd);
    ::close(fd);
    return response;
  }

  net::StatusServer server_;
};

TEST_F(StatusParsing, MalformedRequestLineGets404NotAHang) {
  const std::string response = request("NONSENSE\r\n\r\n");
  EXPECT_NE(response.find("404"), std::string::npos) << response;
}

TEST_F(StatusParsing, UnknownTargetGets404) {
  const std::string response = request("GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("404"), std::string::npos) << response;
}

TEST_F(StatusParsing, PartialRequestAcrossPollWakeupsIsReassembled) {
  const int fd = raw_connect(server_.port());
  raw_send(fd, "GET /hea");
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  raw_send(fd, "lthz HTTP/1.0\r\n\r\n");
  const std::string response = raw_read_all(fd);
  ::close(fd);
  EXPECT_NE(response.find("200"), std::string::npos) << response;
  EXPECT_NE(response.find("ok"), std::string::npos) << response;
}

TEST_F(StatusParsing, OversizedHeadersAreBoundedAndStillServed) {
  // Far past the server's 4 KiB request cap; the read must stop at the cap
  // and the (valid) request line must still be answered.
  std::string oversized = "GET /metrics HTTP/1.0\r\n";
  oversized.append(8192, 'x');
  oversized += "\r\n\r\n";
  const std::string response = request(oversized);
  EXPECT_NE(response.find("200"), std::string::npos) << response;
  EXPECT_NE(response.find("m 1"), std::string::npos) << response;
}

TEST_F(StatusParsing, BurstOfConnectionsAllServedSerially) {
  // One-connection-at-a-time server, listen backlog 8: a burst of pending
  // peers must all get answers, just serially.
  constexpr int kBurst = 8;
  std::vector<int> fds;
  for (int i = 0; i < kBurst; ++i) fds.push_back(raw_connect(server_.port()));
  for (const int fd : fds) raw_send(fd, "GET /status HTTP/1.0\r\n\r\n");
  int served = 0;
  for (const int fd : fds) {
    const std::string response = raw_read_all(fd);
    if (response.find("200") != std::string::npos &&
        response.find("\"ok\":true") != std::string::npos) {
      ++served;
    }
    ::close(fd);
  }
  EXPECT_EQ(served, kBurst);
}

// ---------------------------------------------------------------------------
// LiveRecluster: serving liveness edges -> selector re-cluster

TEST(LiveRecluster, MemberChurnReclustersAndBumpsCounter) {
  obs::set_metrics_enabled(true);
  const auto fed = make_fed(8);
  core::HaccsConfig config;

  // 4 members (workers), member m hosts clients {c : c % 4 == m}; the mask
  // follows each member's liveness edges, as haccs_server builds it.
  std::vector<std::vector<std::size_t>> clients_of_member(4);
  for (std::size_t c = 0; c < fed.clients.size(); ++c) {
    clients_of_member[c % 4].push_back(c);
  }
  std::vector<bool> live(fed.clients.size(), true);
  auto on_member = [&](std::size_t member, bool alive) {
    for (std::size_t c : clients_of_member[member]) live[c] = alive;
  };

  core::HaccsSelector selector(fed, config);
  EXPECT_EQ(selector.cluster_of().size(), 8u);
  const auto startup = selector.cluster_of();

  auto& pushes = obs::Registry::global().counter("recluster_live_total");
  const double before = pushes.value();

  // Nothing changed yet: re-clustering is a no-op.
  EXPECT_FALSE(selector.recluster_live(live));
  EXPECT_EQ(pushes.value(), before);

  // Member 1 dies: its 2 hosted clients depart, labels get recomputed.
  on_member(1, false);
  EXPECT_TRUE(selector.recluster_live(live));
  EXPECT_EQ(pushes.value(), before + 1.0);
  // Labels stay full-size; departed clients fall back to singleton clusters
  // via the selector's noise remap, so no -1 survives.
  ASSERT_EQ(selector.cluster_of().size(), 8u);
  for (const int label : selector.cluster_of()) EXPECT_GE(label, 0);
  for (std::size_t c : clients_of_member[1]) {
    const auto cluster = static_cast<std::size_t>(selector.cluster_of()[c]);
    EXPECT_EQ(selector.clusters()[cluster].size(), 1u) << "client " << c;
  }

  // Idempotent edge + no-churn re-cluster: nothing to do.
  on_member(1, false);
  EXPECT_FALSE(selector.recluster_live(live));
  EXPECT_EQ(pushes.value(), before + 1.0);

  // The member comes back: clients rejoin, one more re-cluster.
  on_member(1, true);
  EXPECT_TRUE(selector.recluster_live(live));
  EXPECT_EQ(selector.cluster_of(), startup);
  EXPECT_EQ(pushes.value(), before + 2.0);
  obs::set_metrics_enabled(false);
}

}  // namespace
}  // namespace haccs
