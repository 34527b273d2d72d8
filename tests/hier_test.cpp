// Tests for the hierarchical aggregation tree (DESIGN.md §5j): the tree wire
// codecs, the 3-tier root→aggregator→worker pipeline's bit-identity with the
// flat grouped dispatcher (the root's norm bound included), salvage on
// aggregator loss and on a lost SubtreeRound, SubtreeUpdate settlement and
// validation, the tree root's config refusals, StatusServer request
// parsing, and the live join/leave re-cluster tracker.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <limits>
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
#include "src/fl/protocol.hpp"
#include "src/hier/fleet.hpp"
#include "src/hier/mid_tier.hpp"
#include "src/hier/tree_dispatcher.hpp"
#include "src/net/loopback.hpp"
#include "src/net/messages.hpp"
#include "src/net/topology.hpp"
#include "src/net/status.hpp"
#include "src/net/tcp.hpp"
#include "src/net/wire.hpp"
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

/// A norm bound on make_engine()'s updates over make_fed() that rejects
/// some of a 3-round run's updates and keeps the rest.
constexpr double kTightNormBound = 0.4;

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

TEST(HierCodec, SubtreeUpdateSumRoundTripPreservesBits) {
  net::SubtreeUpdateMsg msg;
  msg.epoch = 41;
  msg.agg_id = 2;
  // Edge-case doubles: the fold must be bit-exact, so the codec must be too.
  msg.sum = {-0.0, 4.9406564584124654e-324, 1.0 / 3.0,
             -1.7976931348623157e308, 42.0};
  const net::SubtreeUpdateMsg back =
      net::decode_subtree_update(net::encode_subtree_update(msg));
  EXPECT_EQ(back.epoch, 41u);
  EXPECT_EQ(back.agg_id, 2u);
  ASSERT_EQ(back.sum.size(), msg.sum.size());
  EXPECT_EQ(std::memcmp(back.sum.data(), msg.sum.data(),
                        msg.sum.size() * sizeof(double)),
            0);
}

TEST(HierCodec, SubtreeUpdateRoundTrip) {
  net::SubtreeUpdateMsg msg;
  msg.epoch = 7;
  msg.agg_id = 1;
  msg.weight = 123.0;
  msg.sum = {2.5, -7.0};
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
  EXPECT_EQ(back.sum, msg.sum);
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

// The recipe crosses the root link once and comes back as the same local
// work: a TrainJob built from the decoded round is the TrainJob the flat
// root builds, byte for byte.
TEST(HierCodec, SubtreeRoundRoundTripKeepsEveryWorkersTrainJob) {
  fl::LocalWorkConfig work;
  work.local.epochs = 3;
  work.local.batch_size = 17;
  work.local.sgd.learning_rate = 0.05;
  work.local.sgd.momentum = 0.9;
  work.local.sgd.weight_decay = 1e-4;
  work.fedprox = true;
  work.fedprox_mu = 0.03;
  work.compression.kind = fl::CompressionKind::TopK;
  work.compression.topk_fraction = 0.25;
  work.compression.error_feedback = false;

  net::SubtreeRoundMsg msg;
  msg.epoch = 9;
  msg.max_update_norm = 2.5;
  msg.recipe = fl::make_work_recipe(work);
  msg.params = {1.5f, -0.0f, 3.25f};
  msg.jobs = {{6, 0xABCDEFull, 0.5}, {2, 7, 1.0}};
  msg.trace = {0x5eed, 77, 9};
  const net::SubtreeRoundMsg back =
      net::decode_subtree_round(net::encode_subtree_round(msg));
  EXPECT_EQ(back.epoch, 9u);
  EXPECT_EQ(back.max_update_norm, 2.5);
  EXPECT_EQ(back.params, msg.params);
  EXPECT_EQ(back.trace.trace_id, msg.trace.trace_id);
  EXPECT_EQ(back.trace.parent_span, msg.trace.parent_span);
  EXPECT_EQ(back.trace.round, msg.trace.round);
  ASSERT_EQ(back.jobs.size(), 2u);
  const fl::LocalWorkConfig back_work = fl::read_work_recipe(back.recipe);
  for (std::size_t slot = 0; slot < back.jobs.size(); ++slot) {
    EXPECT_EQ(back.jobs[slot].client_id, msg.jobs[slot].client_id);
    EXPECT_EQ(back.jobs[slot].rng_seed, msg.jobs[slot].rng_seed);
    EXPECT_EQ(back.jobs[slot].work_fraction, msg.jobs[slot].work_fraction);
    fl::TrainJobSpec spec;
    spec.client_id = back.jobs[slot].client_id;
    spec.epoch = back.epoch;
    spec.rng_seed = back.jobs[slot].rng_seed;
    spec.work_fraction = back.jobs[slot].work_fraction;
    EXPECT_EQ(net::encode_train_job(fl::make_train_job(spec, back_work,
                                                       back.params, back.trace))
                  .payload,
              net::encode_train_job(
                  fl::make_train_job(spec, work, msg.params, msg.trace))
                  .payload)
        << "slot " << slot;
  }
}

TEST(HierCodec, SubtreeRoundDecodeRefusesMalformedPayloads) {
  net::SubtreeRoundMsg msg;
  msg.params = {1.0f, 2.0f, 3.0f};
  msg.jobs = {{0, 1, 1.0}};
  const net::Frame frame = net::encode_subtree_round(msg);
  EXPECT_NO_THROW(net::decode_subtree_round(frame));
  {
    net::Frame cut = frame;
    cut.payload.resize(cut.payload.size() - 2);
    EXPECT_THROW(net::decode_subtree_round(cut), net::WireError);
  }
  {
    // The job count sits ahead of the one 20-byte job.
    net::Frame inflated = frame;
    const std::size_t count_at = inflated.payload.size() - 20 - 8;
    inflated.payload[count_at] = 2;
    EXPECT_THROW(net::decode_subtree_round(inflated), net::WireError);
    inflated.payload[count_at + 7] = 0x10;
    EXPECT_THROW(net::decode_subtree_round(inflated), net::WireError);
  }
  {
    net::Frame padded = frame;
    padded.payload.push_back(0);
    EXPECT_THROW(net::decode_subtree_round(padded), net::WireError);
  }
  for (const double bound : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    net::SubtreeRoundMsg unbounded = msg;
    unbounded.max_update_norm = bound;
    EXPECT_THROW(
        net::decode_subtree_round(net::encode_subtree_round(unbounded)),
        net::WireError)
        << bound;
  }
}

// ---------------------------------------------------------------------------
// HierTree: the full 3-tier pipeline

/// An in-process 3-tier federation: the root talks to `aggs` MidTierAggregator
/// threads over loopback pairs; each aggregator fronts its slice of `workers`
/// WorkerLoop threads over real TCP through its own TcpListener. The root
/// side of the handshake runs through the library fleet, exactly as
/// haccs_server's does.
struct TreeHarness {
  /// `wrap` (optional) wraps aggregator a's root-side transport before the
  /// root's fleet admits it, e.g. in a probe.
  TreeHarness(const data::FederatedDataset& fed,
              std::function<nn::Sequential()> factory, std::size_t num_aggs,
              std::size_t num_workers,
              const std::function<std::unique_ptr<net::Transport>(
                  std::size_t, std::unique_ptr<net::Transport>)>& wrap =
                  nullptr)
      : fleet_(
            [&] {
              hier::FleetConfig config;
              config.topology = net::Topology(num_workers, num_aggs);
              config.agg_id = std::nullopt;
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
      config.topology = net::Topology(num_workers, num_aggs);
      config.agg_id = static_cast<std::uint32_t>(a);
      config.round_timeout_ms = 60000;
      listeners_.push_back(std::make_unique<net::TcpListener>(0));
      aggs_.push_back(std::make_unique<hier::MidTierAggregator>(
          config, [listener = listeners_.back().get()](int timeout_ms) {
            return listener->accept(timeout_ms);
          }));
      auto pair = net::make_loopback_pair();
      root_ends_.push_back(wrap ? wrap(a, std::move(pair.a))
                                : std::move(pair.a));
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

/// What one engine run produced: per-round JSON (phase timings dropped), the
/// final parameters and the updates it rejected.
struct RunResult {
  std::vector<std::string> lines;
  std::vector<float> params;
  std::size_t rejected = 0;
};

/// Runs `engine` (RandomSelector) through a 3-tier tree (root + 2 aggregators
/// + 4 workers) or through the flat dispatcher with agg_groups = 2. Either
/// way the root's TransportDispatcherConfig carries the engine's recipe and
/// max_update_norm, and nothing else does.
RunResult run_tree_or_grouped_flat(
    const data::FederatedDataset& fed,
    const std::function<nn::Sequential()>& factory, bool tree,
    fl::EngineConfig engine) {
  RunResult out;
  engine.on_checkpoint = [&](std::size_t,
                             const fl::EngineConfig::RunStateFactory& make) {
    out.params = make().global_params;
  };
  fl::TransportDispatcherConfig config;
  config.work.local = engine.local;
  config.work.compression = engine.compression;
  config.recv_timeout_ms = 120000;
  config.max_update_norm = engine.max_update_norm;
  const auto run = [&](fl::RoundDispatcher& dispatcher) {
    engine.dispatcher = &dispatcher;
    fl::FederatedTrainer trainer(fed, factory, engine);
    select::RandomSelector selector;
    const auto history = trainer.run(selector);
    for (const auto& record : history.records()) {
      out.lines.push_back(record_json_no_phase(record));
      out.rejected += record.rejected.size();
    }
  };
  if (tree) {
    TreeHarness harness(fed, factory, /*num_aggs=*/2, /*num_workers=*/4);
    hier::TreeDispatcher dispatcher(harness.root_transports(), config,
                                    net::Topology(4, 2));
    run(dispatcher);
    harness.shutdown_and_join();
    EXPECT_TRUE(harness.agg_ok_[0]);
    EXPECT_TRUE(harness.agg_ok_[1]);
  } else {
    fl::LoopbackCluster cluster(fed, factory, 4);
    config.agg_groups = 2;
    fl::TransportDispatcher dispatcher(cluster.server_transports(), config);
    run(dispatcher);
  }
  return out;
}

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
    RunResult result = run_tree_or_grouped_flat(fed, factory, tree, engine);
    return std::make_pair(std::move(result.lines), std::move(result.params));
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

// The root's norm bound is the tree's: set only on the root's dispatcher
// config, it reaches every mid tier's fold in the SubtreeRound, so the tree
// rejects exactly the updates the grouped flat root rejects.
TEST(HierTree, RootNormBoundReachesTheMidTierFold) {
  const auto fed = make_fed();
  const auto factory = core::default_model_factory(fed, 99);
  fl::EngineConfig engine = make_engine(3);
  engine.max_update_norm = kTightNormBound;
  const RunResult flat = run_tree_or_grouped_flat(fed, factory, false, engine);
  const RunResult tree = run_tree_or_grouped_flat(fed, factory, true, engine);

  // Tight enough to bite, loose enough that updates still land.
  EXPECT_GE(flat.rejected, 1u);
  EXPECT_LT(flat.rejected, engine.rounds * engine.clients_per_round);
  EXPECT_EQ(tree.rejected, flat.rejected);
  ASSERT_EQ(tree.lines.size(), flat.lines.size());
  for (std::size_t r = 0; r < tree.lines.size(); ++r) {
    EXPECT_EQ(tree.lines[r], flat.lines[r]) << "round " << r;
  }
  ASSERT_EQ(tree.params.size(), flat.params.size());
  EXPECT_EQ(std::memcmp(tree.params.data(), flat.params.data(),
                        flat.params.size() * sizeof(float)),
            0);
}

/// Emulates one mid-tier aggregator for a single round: receives the
/// SubtreeRound, then settles with one SubtreeUpdate in which every client
/// "trained" to params + 1 with weight 10. `tamper` edits the update before
/// it is sent (a misbehaving aggregator).
void emulate_agg_round(
    net::Transport& transport, std::uint32_t agg_id,
    const std::function<void(net::SubtreeUpdateMsg&)>& tamper = nullptr) {
  net::Frame frame;
  ASSERT_EQ(transport.recv(&frame, 10000), net::TransportStatus::Ok);
  ASSERT_EQ(frame.type, net::MessageType::SubtreeRound);
  const net::SubtreeRoundMsg round = net::decode_subtree_round(frame);

  net::SubtreeUpdateMsg update;
  update.epoch = round.epoch;
  update.agg_id = agg_id;
  update.weight = 10.0 * round.jobs.size();
  for (const float p : round.params) {
    update.sum.push_back(update.weight * (static_cast<double>(p) + 1.0));
  }
  for (const net::SubtreeJob& job : round.jobs) {
    net::SubtreeClientStat stat;
    stat.client_id = job.client_id;
    stat.delivered = 1;
    stat.sample_count = 10;
    stat.batches = 1;
    update.stats.push_back(stat);
  }
  if (tamper) tamper(update);
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
                                  net::Topology(4, 2));

  std::thread agg([&] { emulate_agg_round(*live.b, 0); });
  // Aggregator 1 accepts its round and then dies before its update.
  std::thread dying([&] {
    net::Frame frame;
    dead.b->recv(&frame, 10000);  // its SubtreeRound
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
  ASSERT_EQ(partials->size(), 2u);
  EXPECT_EQ((*partials)[0].weight, 10.0);
  EXPECT_EQ((*partials)[0].updates, 1u);
  ASSERT_EQ((*partials)[0].sum.size(), params.size());
  EXPECT_EQ((*partials)[0].sum[0], 10.0 * 2.0);  // weight * (param + 1)
  EXPECT_TRUE((*partials)[1].sum.empty());
  EXPECT_EQ((*partials)[1].weight, 0.0);

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

// An aggregator lost part-way through its update, after the other subtree
// delivered, costs only its own subtree: its slot fails as Crash and the
// other subtree's partial is kept bit for bit.
TEST(HierTree, AggregatorLostMidUpdateIsSalvaged) {
  obs::set_metrics_enabled(true);
  auto dying_link = net::make_loopback_pair();
  auto healthy = net::make_loopback_pair();
  const double salvaged_before =
      obs::Registry::global().counter("hier_aggs_salvaged_total").value();

  fl::TransportDispatcherConfig config;
  config.recv_timeout_ms = 10000;
  hier::TreeDispatcher dispatcher({dying_link.a.get(), healthy.a.get()},
                                  config, net::Topology(4, 2));

  std::promise<void> delivered;
  net::SubtreeUpdateMsg sent;
  std::thread agg([&] {
    emulate_agg_round(*healthy.b, 1, [&](net::SubtreeUpdateMsg& update) {
      sent = update;
    });
    delivered.set_value();
  });
  // Aggregator 0 sends the first half of an encoded update, then dies.
  std::thread dying([&] {
    net::Frame frame;
    dying_link.b->recv(&frame, 10000);  // its SubtreeRound
    net::SubtreeUpdateMsg update;
    update.sum = {1.0, 2.0, 3.0};
    const std::vector<std::uint8_t> bytes =
        net::encode_frame(net::encode_subtree_update(update));
    delivered.get_future().wait();
    dying_link.b->send_raw({bytes.data(), bytes.size() / 2}, 10000);
    dying_link.b.reset();
  });

  const auto jobs = two_subtree_jobs();
  const std::vector<float> params = {1.0f, 2.0f, 3.0f};
  std::vector<fl::TrainOutcome> outcomes(2);
  dispatcher.execute(jobs, params, outcomes);
  dying.join();
  agg.join();

  EXPECT_FALSE(outcomes[0].delivered);
  EXPECT_EQ(outcomes[0].failure, fl::FailureKind::Crash);
  EXPECT_TRUE(outcomes[1].delivered);
  const auto* partials = dispatcher.partials();
  ASSERT_NE(partials, nullptr);
  ASSERT_EQ(partials->size(), 2u);
  EXPECT_TRUE((*partials)[0].sum.empty());
  EXPECT_EQ((*partials)[0].weight, 0.0);
  EXPECT_EQ((*partials)[1].weight, sent.weight);
  ASSERT_EQ((*partials)[1].sum.size(), sent.sum.size());
  EXPECT_EQ(std::memcmp((*partials)[1].sum.data(), sent.sum.data(),
                        sent.sum.size() * sizeof(double)),
            0);
  EXPECT_EQ(
      obs::Registry::global().counter("hier_aggs_salvaged_total").value(),
      salvaged_before + 1.0);
  obs::set_metrics_enabled(false);
}

// An aggregator that stays connected but silent past the heartbeat timeout
// is declared dead and salvaged.
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
                                  net::Topology(4, 2));

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

/// Forwards to the transport it owns, except that it swallows the first
/// SubtreeRound sent through it: a root link that lost one round.
class LosesFirstRound final : public net::Transport {
 public:
  explicit LosesFirstRound(std::unique_ptr<net::Transport> inner)
      : inner_(std::move(inner)) {}
  net::TransportStatus send(const net::Frame& frame, int timeout_ms) override {
    if (frame.type == net::MessageType::SubtreeRound && !lost_) {
      lost_ = true;
      return net::TransportStatus::Ok;
    }
    return inner_->send(frame, timeout_ms);
  }
  net::TransportStatus send_raw(std::span<const std::uint8_t> encoded,
                                int timeout_ms) override {
    return inner_->send_raw(encoded, timeout_ms);
  }
  net::TransportStatus recv(net::Frame* out, int timeout_ms) override {
    return inner_->recv(out, timeout_ms);
  }
  void close() override { inner_->close(); }
  std::string peer() const override { return inner_->peer(); }

 private:
  std::unique_ptr<net::Transport> inner_;
  bool lost_ = false;
};

// A SubtreeRound the root link loses costs only that subtree's round, as a
// lost SubtreeUpdate does: its slots fail as Timeout at the root's budget,
// the other subtree commits, the subtree counts as salvaged, and its
// aggregator serves the next round as if nothing happened.
TEST(HierTree, LostSubtreeRoundCostsOnlyItsSubtree) {
  obs::set_metrics_enabled(true);
  const double salvaged_before =
      obs::Registry::global().counter("hier_aggs_salvaged_total").value();
  const auto fed = make_fed();
  const auto factory = core::default_model_factory(fed, 99);
  TreeHarness harness(
      fed, factory, /*num_aggs=*/2, /*num_workers=*/4,
      [](std::size_t a, std::unique_ptr<net::Transport> root_end)
          -> std::unique_ptr<net::Transport> {
        if (a != 1) return root_end;
        return std::make_unique<LosesFirstRound>(std::move(root_end));
      });
  constexpr int kBudgetMs = 1500;
  fl::TransportDispatcherConfig config;
  config.recv_timeout_ms = kBudgetMs;
  hier::TreeDispatcher dispatcher(harness.root_transports(), config,
                                  net::Topology(4, 2));

  // Client c lives on worker c, so clients 0 and 1 are aggregator 0's and
  // clients 2 and 3 aggregator 1's.
  const std::vector<float> params = factory().get_parameters();
  auto round = [&](std::size_t epoch) {
    std::vector<fl::TrainJobSpec> jobs(4);
    for (std::size_t c = 0; c < jobs.size(); ++c) {
      jobs[c].slot = c;
      jobs[c].client_id = c;
      jobs[c].epoch = epoch;
      jobs[c].rng_seed = 100 * epoch + c;
    }
    std::vector<fl::TrainOutcome> outcomes(jobs.size());
    dispatcher.execute(jobs, params, outcomes);
    return outcomes;
  };

  const auto started = std::chrono::steady_clock::now();
  const auto lost = round(1);
  EXPECT_GE(std::chrono::steady_clock::now() - started,
            std::chrono::milliseconds(kBudgetMs));
  EXPECT_TRUE(lost[0].delivered);
  EXPECT_TRUE(lost[1].delivered);
  for (const std::size_t slot : {2, 3}) {
    EXPECT_FALSE(lost[slot].delivered) << "slot " << slot;
    EXPECT_EQ(lost[slot].failure, fl::FailureKind::Timeout) << "slot " << slot;
  }
  const auto* partials = dispatcher.partials();
  ASSERT_NE(partials, nullptr);
  EXPECT_EQ((*partials)[0].updates, 2u);
  EXPECT_EQ((*partials)[0].sum.size(), params.size());
  EXPECT_TRUE((*partials)[1].sum.empty());
  EXPECT_EQ((*partials)[1].weight, 0.0);
  EXPECT_EQ(
      obs::Registry::global().counter("hier_aggs_salvaged_total").value(),
      salvaged_before + 1.0);
  EXPECT_TRUE(dispatcher.agg_alive(1));

  const auto next = round(2);
  for (std::size_t slot = 0; slot < next.size(); ++slot) {
    EXPECT_TRUE(next[slot].delivered) << "slot " << slot;
  }
  EXPECT_EQ((*partials)[1].updates, 2u);
  EXPECT_EQ((*partials)[1].sum.size(), params.size());
  EXPECT_EQ(
      obs::Registry::global().counter("hier_aggs_salvaged_total").value(),
      salvaged_before + 1.0);

  harness.shutdown_and_join();
  EXPECT_TRUE(harness.agg_ok_[0]);
  EXPECT_TRUE(harness.agg_ok_[1]);
  EXPECT_EQ(harness.aggs_[1]->stats().rounds, 1u);
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
                                  net::Topology(4, 2));

  // Aggregator 0's trailer names client 0 again and client 2, which routes
  // to aggregator 1 — and aggregator 1 dies without settling anything.
  std::thread agg([&] {
    emulate_agg_round(*live.b, 0, [](net::SubtreeUpdateMsg& update) {
      for (const std::uint32_t c : {0u, 2u}) {
        net::SubtreeClientStat stat = update.stats.front();
        stat.client_id = c;
        update.stats.push_back(stat);
      }
    });
  });
  std::thread dying([&] {
    net::Frame frame;
    dead.b->recv(&frame, 10000);  // its SubtreeRound
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

/// Runs a round in which aggregator 0 sends `tamper`ed SubtreeUpdate and
/// aggregator 1 a sound one, and checks the root refuses only the first:
/// slot 0 fails as CorruptUpdate and contributes nothing, slot 1 commits.
void expect_update_refused(
    const std::function<void(net::SubtreeUpdateMsg&)>& tamper) {
  auto bad = net::make_loopback_pair();
  auto good = net::make_loopback_pair();
  fl::TransportDispatcherConfig config;
  config.recv_timeout_ms = 10000;
  hier::TreeDispatcher dispatcher({bad.a.get(), good.a.get()}, config,
                                  net::Topology(4, 2));
  std::thread bad_agg([&] { emulate_agg_round(*bad.b, 0, tamper); });
  std::thread good_agg([&] { emulate_agg_round(*good.b, 1); });

  const auto jobs = two_subtree_jobs();
  const std::vector<float> params = {1.0f, 2.0f, 3.0f};
  std::vector<fl::TrainOutcome> outcomes(2);
  dispatcher.execute(jobs, params, outcomes);
  bad_agg.join();
  good_agg.join();

  EXPECT_FALSE(outcomes[0].delivered);
  EXPECT_EQ(outcomes[0].failure, fl::FailureKind::CorruptUpdate);
  EXPECT_TRUE(outcomes[1].delivered);
  const auto* partials = dispatcher.partials();
  ASSERT_NE(partials, nullptr);
  ASSERT_EQ(partials->size(), 2u);
  EXPECT_TRUE((*partials)[0].sum.empty());
  EXPECT_EQ((*partials)[0].weight, 0.0);
  EXPECT_EQ((*partials)[0].updates, 0u);
  EXPECT_EQ((*partials)[1].weight, 10.0);
  EXPECT_EQ((*partials)[1].sum.size(), params.size());
}

TEST(HierTree, UpdateWhoseSumIsNotTheModelsLengthIsRefused) {
  expect_update_refused(
      [](net::SubtreeUpdateMsg& update) { update.sum.pop_back(); });
}

TEST(HierTree, UpdateWithANonFiniteSumIsRefused) {
  expect_update_refused([](net::SubtreeUpdateMsg& update) {
    update.sum[1] = std::numeric_limits<double>::quiet_NaN();
  });
}

TEST(HierTree, UpdateWhoseSumDisagreesWithItsDeliveredStatsIsRefused) {
  // Its one client is delivered at the right weight, but no sum came.
  expect_update_refused(
      [](net::SubtreeUpdateMsg& update) { update.sum.clear(); });
}

TEST(HierTree, UpdateWhoseWeightDisagreesWithItsStatsIsRefused) {
  expect_update_refused(
      [](net::SubtreeUpdateMsg& update) { update.weight += 1.0; });
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
      hier::TreeDispatcher dispatcher(aggs, config, net::Topology(4, 2));
      ADD_FAILURE() << field << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }
  // The defaults are all honoured.
  EXPECT_NO_THROW(
      hier::TreeDispatcher(aggs, fl::TransportDispatcherConfig{},
                           net::Topology(4, 2)));
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
