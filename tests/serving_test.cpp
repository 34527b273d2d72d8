// Tests for the fault-tolerant serving mode (DESIGN.md §5g): crash-resume
// run checkpoints (round-trip, damage rejection, resume bit-equivalence),
// seeded transport chaos injection, the serving-mode dispatcher (quorum
// commit, heartbeat liveness escalation, reacquire), and worker session
// resume across reconnects.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/haccs_system.hpp"
#include "src/fl/checkpoint.hpp"
#include "src/fl/engine.hpp"
#include "src/fl/net_driver.hpp"
#include "src/net/chaos.hpp"
#include "src/net/frame.hpp"
#include "src/net/loopback.hpp"
#include "src/net/messages.hpp"
#include "src/net/status.hpp"
#include "src/net/wire.hpp"
#include "src/nn/serialize.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"
#include "src/obs/trace.hpp"
#include "src/select/oort.hpp"
#include "src/select/random_selector.hpp"
#include "src/sim/dropout.hpp"
#include "src/testing/scenario.hpp"

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

fl::EngineConfig make_engine(std::size_t rounds = 6) {
  fl::EngineConfig cfg;
  cfg.rounds = rounds;
  cfg.clients_per_round = 3;
  cfg.eval_every = 3;
  cfg.local.sgd.learning_rate = 0.08;
  cfg.seed = 23;
  return cfg;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

/// Records with phase timings zeroed — the resume guarantee is "bit
/// identical modulo wall clock".
std::string record_json_no_phase(const fl::RoundRecord& record) {
  fl::RoundRecord copy = record;
  copy.phase = fl::PhaseTimings{};
  return fl::round_event_json("sync", copy);
}

// ---------------------------------------------------------------------------
// RunCheckpoint: encode/decode and file round trips

fl::RunState sample_state() {
  fl::RunState s;
  s.next_epoch = 7;
  s.sim_time_s = 123.5;
  s.last_accuracy = 0.625;
  s.last_loss = 1.25;
  s.global_params = {1.0f, -2.5f, 0.0f, 3.25f};
  Rng select_rng(41), train_rng(43);
  select_rng.uniform();
  s.select_rng = select_rng.state();
  s.train_rng = train_rng.state();
  s.client_last_loss = {0.5, 1.5, 2.5};
  s.breakers.resize(3);
  s.breakers[1].consecutive_failures = 2;
  s.selector_state = {0xDE, 0xAD, 0xBE, 0xEF};
  fl::RoundRecord rec;
  rec.epoch = 6;
  rec.sim_time_s = 123.5;
  rec.round_duration_s = 9.0;
  rec.global_accuracy = 0.625;
  rec.global_loss = 1.25;
  rec.selected = {1, 2};
  rec.dispatched = 3;
  rec.crashed = {0};
  rec.downlink_bytes = 300;
  rec.uplink_bytes = 200;
  s.records.push_back(rec);
  return s;
}

TEST(RunCheckpoint, EncodeDecodeRoundTrip) {
  const fl::RunState state = sample_state();
  const auto bytes = fl::encode_run_state(state);
  const fl::RunState back = fl::decode_run_state(bytes);

  EXPECT_EQ(back.next_epoch, state.next_epoch);
  EXPECT_EQ(back.sim_time_s, state.sim_time_s);
  EXPECT_EQ(back.last_accuracy, state.last_accuracy);
  EXPECT_EQ(back.last_loss, state.last_loss);
  EXPECT_EQ(back.global_params, state.global_params);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(back.select_rng.s[i], state.select_rng.s[i]);
    EXPECT_EQ(back.train_rng.s[i], state.train_rng.s[i]);
  }
  EXPECT_EQ(back.client_last_loss, state.client_last_loss);
  ASSERT_EQ(back.breakers.size(), state.breakers.size());
  EXPECT_EQ(back.breakers[1].consecutive_failures, 2u);
  EXPECT_EQ(back.selector_state, state.selector_state);
  ASSERT_EQ(back.records.size(), 1u);
  EXPECT_EQ(record_json_no_phase(back.records[0]),
            record_json_no_phase(state.records[0]));
}

TEST(RunCheckpoint, TruncationFailsWithDistinctError) {
  auto bytes = fl::encode_run_state(sample_state());
  bytes.resize(bytes.size() / 2);
  try {
    fl::decode_run_state(bytes);
    FAIL() << "truncated checkpoint decoded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST(RunCheckpoint, PayloadCorruptionFailsCrc) {
  auto bytes = fl::encode_run_state(sample_state());
  bytes[bytes.size() - 3] ^= 0x40;  // flip one payload bit
  try {
    fl::decode_run_state(bytes);
    FAIL() << "corrupt checkpoint decoded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos)
        << e.what();
  }
}

TEST(RunCheckpoint, VersionSkewFailsWithDistinctError) {
  net::WireWriter w;
  w.string("HACCS-RUN");
  w.u16(fl::kRunStateVersion + 41);
  net::Frame frame;
  frame.type = net::MessageType::Checkpoint;
  frame.payload = w.take();
  try {
    fl::decode_run_state(net::encode_frame(frame));
    FAIL() << "version-skewed checkpoint decoded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

TEST(RunCheckpoint, ModelCheckpointIsRejectedAsNotARunCheckpoint) {
  // nn/serialize.hpp model checkpoints share the Checkpoint frame type; the
  // run loader must reject them by payload magic, not crash on them.
  const auto fed = make_fed(4);
  const auto path = temp_path("model_ck.bin");
  nn::save_parameters(core::default_model_factory(fed, 99)(), path);
  try {
    fl::decode_run_state(read_file(path));
    FAIL() << "model checkpoint decoded as run state";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("not a run checkpoint"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(RunCheckpoint, SaveLoadFileRoundTripIsAtomic) {
  const auto path = temp_path("run_ck.bin");
  fl::RunState state = sample_state();
  fl::save_run_state(state, path);
  state.next_epoch = 9;
  fl::save_run_state(state, path);  // overwrite via tmp + rename
  const fl::RunState back = fl::load_run_state(path);
  EXPECT_EQ(back.next_epoch, 9u);
  // No temp litter left behind.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// RunCheckpoint: resume equivalence

TEST(RunCheckpoint, ResumedRunIsBitIdenticalToUninterrupted) {
  const auto fed = make_fed();
  const std::size_t total_rounds = 8, kill_after = 4;
  auto engine = make_engine(total_rounds);

  // Uninterrupted reference with a STATEFUL selector (Oort learns observed
  // losses), so the selector save/load path is load-bearing here.
  select::OortSelector ref_selector{select::OortConfig{}};
  fl::FederatedTrainer ref_trainer(fed, core::default_model_factory(fed, 99),
                                   engine);
  const auto reference = ref_trainer.run(ref_selector);
  ASSERT_EQ(reference.records().size(), total_rounds);

  // Interrupted run: capture the checkpoint after round `kill_after`, then
  // abandon the trainer (our stand-in for kill -9) and resume in a fresh
  // trainer + fresh selector.
  fl::RunState at_kill;
  bool captured = false;
  auto first_half_engine = engine;
  first_half_engine.rounds = kill_after;
  first_half_engine.on_checkpoint =
      [&](std::size_t next_epoch,
          const fl::EngineConfig::RunStateFactory& snapshot) {
        if (next_epoch == kill_after) {
          at_kill = snapshot();
          captured = true;
        }
      };
  select::OortSelector half_selector{select::OortConfig{}};
  fl::FederatedTrainer half_trainer(
      fed, core::default_model_factory(fed, 99), first_half_engine);
  half_trainer.run(half_selector);
  ASSERT_TRUE(captured);
  EXPECT_FALSE(at_kill.selector_state.empty());

  select::OortSelector resumed_selector{select::OortConfig{}};
  fl::FederatedTrainer resumed_trainer(
      fed, core::default_model_factory(fed, 99), engine);
  const auto schedule = sim::make_always_available(fed.num_clients());
  const auto resumed =
      resumed_trainer.run(resumed_selector, *schedule, &at_kill);

  ASSERT_EQ(resumed.records().size(), total_rounds);
  for (std::size_t i = 0; i < total_rounds; ++i) {
    EXPECT_EQ(record_json_no_phase(reference.records()[i]),
              record_json_no_phase(resumed.records()[i]))
        << "round " << i;
  }
  EXPECT_EQ(ref_trainer.final_parameters(),
            resumed_trainer.final_parameters());
}

TEST(RunCheckpoint, EngineEmitsACheckpointEveryRound) {
  const auto fed = make_fed();
  auto engine = make_engine(3);
  std::vector<std::size_t> next_epochs;
  engine.on_checkpoint = [&](std::size_t next_epoch,
                             const fl::EngineConfig::RunStateFactory& snapshot) {
    next_epochs.push_back(next_epoch);
    const fl::RunState state = snapshot();
    EXPECT_EQ(state.next_epoch, next_epoch);
    EXPECT_EQ(state.records.size(), next_epoch);
    EXPECT_FALSE(state.global_params.empty());
  };
  select::RandomSelector selector;
  fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                               engine);
  trainer.run(selector);
  EXPECT_EQ(next_epochs, (std::vector<std::size_t>{1, 2, 3}));
}

TEST(RunCheckpoint, StopRequestedDrainsAfterCompletedRound) {
  const auto fed = make_fed();
  auto engine = make_engine(6);
  std::size_t completed = 0;
  // Never calls the factory: a hook that skips a round must cost nothing.
  engine.on_checkpoint = [&](std::size_t next_epoch,
                             const fl::EngineConfig::RunStateFactory&) {
    completed = next_epoch;
  };
  engine.stop_requested = [&] { return completed >= 2; };
  select::RandomSelector selector;
  fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                               engine);
  const auto history = trainer.run(selector);
  EXPECT_EQ(history.records().size(), 2u);
}

// ---------------------------------------------------------------------------
// ChaosTransport

net::Frame make_hello(std::uint32_t id) {
  return net::encode_hello(net::HelloMsg{id, 1});
}

TEST(ChaosTransport, WrapIsPassthroughWhenDisabled) {
  auto pair = net::make_loopback_pair({});
  net::Transport* raw = pair.a.get();
  auto wrapped = net::wrap_chaos(std::move(pair.a), net::ChaosOptions{});
  EXPECT_EQ(wrapped.get(), raw);  // zero-cost: same object handed back
}

TEST(ChaosTransport, DropsAreSilentAndCounted) {
  auto pair = net::make_loopback_pair({});
  net::ChaosOptions chaos;
  chaos.drop_rate = 1.0;
  auto sender = net::wrap_chaos(std::move(pair.a), chaos);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(sender->send(make_hello(7)), net::TransportStatus::Ok);
  }
  net::Frame frame;
  EXPECT_EQ(pair.b->recv(&frame, 0), net::TransportStatus::Timeout);
  const auto* chaotic = dynamic_cast<net::ChaosTransport*>(sender.get());
  ASSERT_NE(chaotic, nullptr);
  EXPECT_EQ(chaotic->stats().dropped, 5u);
}

TEST(ChaosTransport, CorruptionIsCaughtByReceiverCrc) {
  auto pair = net::make_loopback_pair({});
  net::ChaosOptions chaos;
  chaos.corrupt_rate = 1.0;
  auto sender = net::wrap_chaos(std::move(pair.a), chaos);
  ASSERT_EQ(sender->send(make_hello(7)), net::TransportStatus::Ok);
  net::Frame frame;
  EXPECT_EQ(pair.b->recv(&frame, 1000), net::TransportStatus::Corrupt);
}

TEST(ChaosTransport, DuplicateDeliversTheFrameTwice) {
  auto pair = net::make_loopback_pair({});
  net::ChaosOptions chaos;
  chaos.duplicate_rate = 1.0;
  auto sender = net::wrap_chaos(std::move(pair.a), chaos);
  ASSERT_EQ(sender->send(make_hello(9)), net::TransportStatus::Ok);
  net::Frame first, second;
  ASSERT_EQ(pair.b->recv(&first, 1000), net::TransportStatus::Ok);
  ASSERT_EQ(pair.b->recv(&second, 1000), net::TransportStatus::Ok);
  EXPECT_EQ(net::decode_hello(first).worker_id, 9u);
  EXPECT_EQ(net::decode_hello(second).worker_id, 9u);
}

TEST(ChaosTransport, ReorderSwapsAdjacentFrames) {
  auto pair = net::make_loopback_pair({});
  net::ChaosOptions chaos;
  chaos.seed = 5;
  chaos.reorder_rate = 1.0;
  auto sender = net::wrap_chaos(std::move(pair.a), chaos);
  ASSERT_EQ(sender->send(make_hello(1)), net::TransportStatus::Ok);
  ASSERT_EQ(sender->send(make_hello(2)), net::TransportStatus::Ok);
  // Frame 1 was held, frame 2 shipped first, then 1 released behind it.
  net::Frame first, second;
  ASSERT_EQ(pair.b->recv(&first, 1000), net::TransportStatus::Ok);
  ASSERT_EQ(pair.b->recv(&second, 1000), net::TransportStatus::Ok);
  EXPECT_EQ(net::decode_hello(first).worker_id, 2u);
  EXPECT_EQ(net::decode_hello(second).worker_id, 1u);
}

TEST(ChaosTransport, DisconnectClosesTheLink) {
  auto pair = net::make_loopback_pair({});
  net::ChaosOptions chaos;
  chaos.disconnect_rate = 1.0;
  auto sender = net::wrap_chaos(std::move(pair.a), chaos);
  EXPECT_EQ(sender->send(make_hello(7)), net::TransportStatus::Closed);
  // The tear-down is sticky: later sends stay Closed.
  EXPECT_EQ(sender->send(make_hello(7)), net::TransportStatus::Closed);
}

TEST(ChaosTransport, SameSeedReplaysTheSameFaultScript) {
  auto script = [](std::uint64_t seed) {
    auto pair = net::make_loopback_pair({});
    net::ChaosOptions chaos;
    chaos.seed = seed;
    chaos.drop_rate = 0.3;
    chaos.corrupt_rate = 0.2;
    chaos.duplicate_rate = 0.2;
    auto sender = net::wrap_chaos(std::move(pair.a), chaos);
    for (std::uint32_t i = 0; i < 50; ++i) sender->send(make_hello(i));
    std::vector<int> observed;
    for (;;) {
      net::Frame frame;
      const auto status = pair.b->recv(&frame, 0);
      if (status == net::TransportStatus::Timeout) break;
      observed.push_back(status == net::TransportStatus::Ok
                             ? static_cast<int>(net::decode_hello(frame)
                                                    .worker_id)
                             : -1);
    }
    return observed;
  };
  const auto a = script(77), b = script(77), c = script(78);
  EXPECT_EQ(a, b);   // bit-exact replay from the seed
  EXPECT_NE(a, c);   // and the seed actually matters
}

// ---------------------------------------------------------------------------
// ServingDispatcher: quorum commit, heartbeat escalation, reacquire

fl::TrainJobSpec job_for(std::size_t slot, std::size_t client_id) {
  fl::TrainJobSpec job;
  job.slot = slot;
  job.client_id = client_id;
  job.epoch = 1;
  job.rng_seed = 7;
  return job;
}

/// A scripted worker endpoint: answers TrainJobs by echoing the params back
/// as a Dense update (no real training — these tests exercise the
/// dispatcher's collection logic, not the math).
void echo_jobs(net::Transport& transport, int count,
               int delay_ms_before_reply = 0, int heartbeat_every_ms = 0) {
  for (int i = 0; i < count; ++i) {
    net::Frame frame;
    if (transport.recv(&frame, 5000) != net::TransportStatus::Ok) return;
    if (frame.type != net::MessageType::TrainJob) {
      --i;
      continue;
    }
    const auto msg = net::decode_train_job(frame);
    if (delay_ms_before_reply > 0) {
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(delay_ms_before_reply);
      while (std::chrono::steady_clock::now() < deadline) {
        if (heartbeat_every_ms > 0) {
          transport.send(net::encode_heartbeat(
              net::HeartbeatMsg{0, msg.epoch, {}}));
          std::this_thread::sleep_for(
              std::chrono::milliseconds(heartbeat_every_ms));
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }
    }
    net::ClientUpdateMsg reply;
    reply.epoch = msg.epoch;
    reply.client_id = msg.client_id;
    reply.batches = 1;
    reply.update.kind = net::UpdateKind::Dense;
    reply.update.size = msg.params.size();
    reply.update.dense = msg.params;
    transport.send(net::encode_client_update(reply));
  }
}

TEST(ServingDispatcher, QuorumCommitsWithoutStragglers) {
  auto fast = net::make_loopback_pair({});
  auto silent = net::make_loopback_pair({});
  std::thread worker([&] { echo_jobs(*fast.b, 1); });

  fl::TransportDispatcherConfig config;
  config.recv_timeout_ms = 30000;
  config.quorum_fraction = 0.5;  // 1 of 2 suffices
  config.quorum_grace_ms = 30;
  fl::TransportDispatcher dispatcher({fast.a.get(), silent.a.get()}, config);

  const std::vector<fl::TrainJobSpec> jobs = {job_for(0, 0), job_for(1, 1)};
  const std::vector<float> params = {1.0f, 2.0f};
  std::vector<fl::TrainOutcome> outcomes(2);
  dispatcher.execute(jobs, params, outcomes);
  worker.join();

  EXPECT_TRUE(outcomes[0].delivered);
  EXPECT_FALSE(outcomes[1].delivered);
  EXPECT_EQ(outcomes[1].failure, fl::FailureKind::Timeout);
}

TEST(ServingDispatcher, SilentWorkerIsEscalatedToCrash) {
  auto fast = net::make_loopback_pair({});
  auto silent = net::make_loopback_pair({});
  std::thread worker([&] { echo_jobs(*fast.b, 1); });

  fl::TransportDispatcherConfig config;
  config.recv_timeout_ms = 30000;
  config.heartbeat_timeout_ms = 100;
  fl::TransportDispatcher dispatcher({fast.a.get(), silent.a.get()}, config);

  const std::vector<fl::TrainJobSpec> jobs = {job_for(0, 0), job_for(1, 1)};
  const std::vector<float> params = {1.0f};
  std::vector<fl::TrainOutcome> outcomes(2);
  dispatcher.execute(jobs, params, outcomes);
  worker.join();

  EXPECT_TRUE(outcomes[0].delivered);
  EXPECT_FALSE(outcomes[1].delivered);
  EXPECT_EQ(outcomes[1].failure, fl::FailureKind::Crash);
}

TEST(ServingDispatcher, HeartbeatsKeepASlowWorkerAlive) {
  // The worker takes 4x the heartbeat timeout to reply but announces
  // liveness throughout — the dispatcher must wait, not escalate.
  auto slow = net::make_loopback_pair({});
  std::thread worker([&] { echo_jobs(*slow.b, 1, /*delay=*/400,
                                     /*heartbeat_every=*/20); });

  fl::TransportDispatcherConfig config;
  config.recv_timeout_ms = 30000;
  config.heartbeat_timeout_ms = 100;
  fl::TransportDispatcher dispatcher({slow.a.get()}, config);

  const std::vector<fl::TrainJobSpec> jobs = {job_for(0, 0)};
  const std::vector<float> params = {1.0f};
  std::vector<fl::TrainOutcome> outcomes(1);
  dispatcher.execute(jobs, params, outcomes);
  worker.join();

  EXPECT_TRUE(outcomes[0].delivered);
}

TEST(ServingDispatcher, ReacquireHandsADeadWorkerItsSlotBack) {
  auto first = net::make_loopback_pair({});
  auto second = net::make_loopback_pair({});
  first.a->close();  // round 1: worker 0's transport is already dead

  std::size_t reacquires = 0;
  fl::TransportDispatcherConfig config;
  config.recv_timeout_ms = 1000;
  config.reacquire = [&](std::size_t w) -> net::Transport* {
    ++reacquires;
    return w == 0 && reacquires > 1 ? second.a.get() : nullptr;
  };
  fl::TransportDispatcher dispatcher({first.a.get()}, config);

  const std::vector<fl::TrainJobSpec> jobs = {job_for(0, 0)};
  const std::vector<float> params = {1.0f};
  std::vector<fl::TrainOutcome> round1(1);
  dispatcher.execute(jobs, params, round1);
  EXPECT_FALSE(round1[0].delivered);
  EXPECT_EQ(round1[0].failure, fl::FailureKind::Crash);

  // Round 2: reacquire supplies the replacement transport and the worker
  // serves again.
  std::thread worker([&] { echo_jobs(*second.b, 1); });
  std::vector<fl::TrainOutcome> round2(1);
  dispatcher.execute(jobs, params, round2);
  worker.join();
  EXPECT_TRUE(round2[0].delivered);
  EXPECT_GE(reacquires, 2u);
}

// A link found dead mid-fan-out is reacquired through the same step as a
// dead worker between rounds: the job goes out on the replacement, and the
// new session shows on /status.
TEST(ServingDispatcher, MidRoundReacquireCountsTheSession) {
  auto first = net::make_loopback_pair({});
  auto second = net::make_loopback_pair({});
  first.a->close();  // worker 0's transport dies before round 1

  fl::ServingStatusBoard board(1);
  std::size_t reacquires = 0;
  fl::TransportDispatcherConfig config;
  config.recv_timeout_ms = 5000;
  config.status_board = &board;
  config.reacquire = [&](std::size_t) -> net::Transport* {
    ++reacquires;
    return second.a.get();
  };
  fl::TransportDispatcher dispatcher({first.a.get()}, config);

  std::thread worker([&] { echo_jobs(*second.b, 1); });
  const std::vector<fl::TrainJobSpec> jobs = {job_for(0, 0)};
  const std::vector<float> params = {1.0f};
  std::vector<fl::TrainOutcome> outcomes(1);
  dispatcher.execute(jobs, params, outcomes);
  worker.join();

  EXPECT_TRUE(outcomes[0].delivered);
  EXPECT_EQ(reacquires, 1u);
  EXPECT_EQ(board.worker(0).sessions.load(), 1u);
  EXPECT_TRUE(board.worker(0).alive.load());
  EXPECT_EQ(board.worker(0).updates.load(), 1u);
}

// ---------------------------------------------------------------------------
// WorkerReconnect: session resume on a fresh transport

TEST(WorkerReconnect, ServeResumesAcrossTransports) {
  const auto fed = make_fed(4);
  fl::WorkerLoopConfig config;
  config.worker_id = 0;
  fl::WorkerLoop loop(fed, core::default_model_factory(fed, 99), config);

  auto serve_one_job = [&](net::LoopbackPair& pair) {
    std::thread server([&] {
      net::TrainJobMsg msg;
      msg.epoch = 1;
      msg.client_id = 0;
      msg.rng_seed = 7;
      msg.local_epochs = 1;
      msg.batch_size = 16;
      msg.learning_rate = 0.05f;
      msg.params = core::default_model_factory(fed, 99)().get_parameters();
      ASSERT_EQ(pair.a->send(net::encode_train_job(msg)),
                net::TransportStatus::Ok);
      net::Frame frame;
      ASSERT_EQ(pair.a->recv(&frame, 30000), net::TransportStatus::Ok);
      EXPECT_EQ(frame.type, net::MessageType::ClientUpdate);
      pair.a->close();  // simulated connection loss
    });
    const auto end = loop.serve(*pair.b);
    server.join();
    EXPECT_EQ(end, fl::WorkerRunEnd::Closed);
  };

  auto session1 = net::make_loopback_pair({});
  serve_one_job(session1);
  EXPECT_EQ(loop.jobs_served(), 1u);

  // Same WorkerLoop, fresh transport: the session resumes and keeps
  // counting (and keeps its residual state — same object).
  auto session2 = net::make_loopback_pair({});
  serve_one_job(session2);
  EXPECT_EQ(loop.jobs_served(), 2u);

  // An orderly Shutdown still ends a session cleanly.
  auto session3 = net::make_loopback_pair({});
  net::Frame shutdown;
  shutdown.type = net::MessageType::Shutdown;
  session3.a->send(shutdown);
  EXPECT_EQ(loop.serve(*session3.b), fl::WorkerRunEnd::Shutdown);
}

TEST(WorkerReconnect, IdleTimeoutReportedDistinctly) {
  const auto fed = make_fed(4);
  fl::WorkerLoopConfig config;
  config.recv_timeout_ms = 30;
  config.exit_on_timeout = true;
  fl::WorkerLoop loop(fed, core::default_model_factory(fed, 99), config);
  auto pair = net::make_loopback_pair({});
  EXPECT_EQ(loop.serve(*pair.b), fl::WorkerRunEnd::IdleTimeout);
}

// ---------------------------------------------------------------------------
// End to end: a full engine run over a hostile loopback wire

TEST(ServingDispatcher, EngineRunCompletesUnderChaos) {
  const auto fed = make_fed();
  auto engine = make_engine(4);
  engine.overcommit = 0.5;

  fl::LoopbackClusterOptions options;
  options.chaos.seed = 11;
  options.chaos.drop_rate = 0.05;
  options.chaos.corrupt_rate = 0.05;
  options.chaos.duplicate_rate = 0.05;
  options.chaos.reorder_rate = 0.05;
  options.worker_heartbeat_interval_ms = 20;
  fl::LoopbackCluster cluster(fed, core::default_model_factory(fed, 99), 2,
                              options);

  fl::TransportDispatcherConfig config;
  config.work.local = engine.local;
  config.work.compression = engine.compression;
  config.recv_timeout_ms = 60000;
  config.heartbeat_timeout_ms = 2000;
  config.quorum_fraction = 0.5;
  config.quorum_grace_ms = 50;
  fl::TransportDispatcher dispatcher(cluster.server_transports(), config);
  engine.dispatcher = &dispatcher;

  fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                               engine);
  select::RandomSelector selector;
  const auto history = trainer.run(selector);

  // The guarantee under chaos: every round commits, and every dispatched
  // job lands in exactly one outcome bucket.
  ASSERT_EQ(history.records().size(), 4u);
  for (const auto& r : history.records()) {
    EXPECT_EQ(r.selected.size() + r.crashed.size() + r.late.size() +
                  r.rejected.size(),
              r.dispatched);
  }
}

// ---------------------------------------------------------------------------
// ServingTrace: cross-process span propagation (DESIGN.md §5i)

/// Trace tests flip process-global obs state; bracket them so suite order
/// never bleeds (mirrors the ObsTest fixture).
void reset_trace_state() {
  obs::set_trace_enabled(false);
  obs::TraceBuffer::global().clear();
  obs::clear_round_context();
}

struct ShardCollector {
  std::vector<obs::WorkerTrack> tracks;
  void operator()(net::TraceShardMsg&& shard) {
    obs::WorkerTrack track;
    track.worker_id = shard.worker_id;
    track.label = "worker-" + std::to_string(shard.worker_id);
    track.events = std::move(shard.events);
    tracks.push_back(std::move(track));
  }
};

TEST(ServingTrace, WorkerSpansParentUnderServerRoundSpans) {
  reset_trace_state();
  obs::set_trace_enabled(true);

  const auto fed = make_fed();
  auto engine = make_engine(6);
  fl::LoopbackCluster cluster(fed, core::default_model_factory(fed, 99), 2,
                              fl::LoopbackClusterOptions{});

  ShardCollector collector;
  fl::TransportDispatcherConfig config;
  config.work.local = engine.local;
  config.work.compression = engine.compression;
  config.recv_timeout_ms = 60000;
  config.on_trace_shard = [&](net::TraceShardMsg&& s) {
    collector(std::move(s));
  };
  fl::TransportDispatcher dispatcher(cluster.server_transports(), config);
  engine.dispatcher = &dispatcher;

  fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                               engine);
  select::RandomSelector selector;
  const auto history = trainer.run(selector);
  ASSERT_EQ(history.records().size(), 6u);

  // The server's round spans, keyed by span id — the ids workers must have
  // adopted as parents.
  std::map<std::uint64_t, std::int64_t> round_spans;
  const auto server_events = obs::TraceBuffer::global().snapshot();
  for (const auto& event : server_events) {
    if (std::string(event.name) == "round") {
      EXPECT_NE(event.span_id, 0u);
      round_spans[event.span_id] = event.round;
    }
  }
  EXPECT_EQ(round_spans.size(), 6u);

  // Every worker local_train span must point at a real server round span
  // and agree with it on the round index (the cross-process contract).
  ASSERT_FALSE(collector.tracks.empty());
  std::set<std::uint32_t> shipped_workers;
  std::size_t train_spans = 0;
  for (const auto& track : collector.tracks) {
    shipped_workers.insert(track.worker_id);
    for (const auto& event : track.events) {
      if (event.name != "local_train") continue;
      ++train_spans;
      EXPECT_NE(event.span_id, 0u);
      const auto parent = round_spans.find(event.parent_id);
      ASSERT_NE(parent, round_spans.end())
          << "worker span parent " << event.parent_id
          << " is not a server round span";
      EXPECT_EQ(parent->second, event.round);
    }
  }
  EXPECT_GT(train_spans, 0u);
  EXPECT_EQ(shipped_workers.size(), 2u) << "both workers must ship shards";

  // The merged document puts the server on pid 1 and each worker on its own
  // named track.
  const std::string json =
      obs::merged_chrome_json(server_events, collector.tracks);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
  EXPECT_NE(json.find("worker-0"), std::string::npos);
  EXPECT_NE(json.find("worker-1"), std::string::npos);

  reset_trace_state();
}

TEST(ServingTrace, TracedServingHistoryMatchesUntraced) {
  // Tracing a serving run must not change what the run computes: the round
  // history (modulo wall-clock phase timings) is byte-identical.
  auto run_once = [&](bool traced) {
    reset_trace_state();
    obs::set_trace_enabled(traced);
    const auto fed = make_fed();
    auto engine = make_engine(4);
    fl::LoopbackCluster cluster(fed, core::default_model_factory(fed, 99), 2,
                                fl::LoopbackClusterOptions{});
    fl::TransportDispatcherConfig config;
    config.work.local = engine.local;
    config.work.compression = engine.compression;
    config.recv_timeout_ms = 60000;
    fl::TransportDispatcher dispatcher(cluster.server_transports(), config);
    engine.dispatcher = &dispatcher;
    fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                                 engine);
    select::RandomSelector selector;
    const auto history = trainer.run(selector);
    std::vector<std::string> lines;
    for (const auto& record : history.records()) {
      lines.push_back(record_json_no_phase(record));
    }
    return lines;
  };

  const auto plain = run_once(false);
  const auto traced = run_once(true);
  reset_trace_state();

  ASSERT_EQ(plain.size(), traced.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i], traced[i]) << "round " << i;
  }
}

// ---------------------------------------------------------------------------
// ServingStatus: the exposition endpoint under transport chaos

/// Minimal blocking HTTP/1.0 GET against 127.0.0.1; returns the full
/// response (head + body), empty on connect failure.
std::string http_get(std::uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return {};
  }
  const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  (void)!::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(ServingStatus, ScrapesStayConsistentUnderChaos) {
  const auto fed = make_fed();
  auto engine = make_engine(6);
  engine.overcommit = 0.5;

  fl::LoopbackClusterOptions options;
  options.chaos.seed = 11;
  options.chaos.drop_rate = 0.05;
  options.chaos.corrupt_rate = 0.05;
  options.chaos.duplicate_rate = 0.05;
  options.chaos.reorder_rate = 0.05;
  options.worker_heartbeat_interval_ms = 20;
  fl::LoopbackCluster cluster(fed, core::default_model_factory(fed, 99), 2,
                              options);

  fl::ServingStatusBoard board(2);
  fl::TransportDispatcherConfig config;
  config.work.local = engine.local;
  config.work.compression = engine.compression;
  config.recv_timeout_ms = 60000;
  config.heartbeat_timeout_ms = 2000;
  config.quorum_fraction = 0.5;
  config.quorum_grace_ms = 50;
  config.status_board = &board;
  fl::TransportDispatcher dispatcher(cluster.server_transports(), config);
  engine.dispatcher = &dispatcher;

  net::StatusEndpoints endpoints;
  endpoints.metrics_text = [] {
    return obs::Registry::global().to_prometheus();
  };
  endpoints.status_json = [&board] { return board.to_json(); };
  net::StatusServer status(0, endpoints);
  ASSERT_NE(status.port(), 0u);

  fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                               engine);
  select::RandomSelector selector;
  fl::TrainingHistory history;
  std::thread run([&] { history = trainer.run(selector); });

  // Scrape while the round loop is live; every response must be well
  // formed regardless of what chaos is doing to the serving links.
  int ok_scrapes = 0;
  for (int i = 0; i < 20; ++i) {
    const auto health = http_get(status.port(), "/healthz");
    const auto metrics = http_get(status.port(), "/metrics");
    const auto status_doc = http_get(status.port(), "/status");
    if (health.empty() || metrics.empty() || status_doc.empty()) continue;
    ++ok_scrapes;
    EXPECT_NE(health.find("200 OK"), std::string::npos);
    EXPECT_NE(health.find("ok"), std::string::npos);
    EXPECT_NE(metrics.find("200 OK"), std::string::npos);
    EXPECT_NE(status_doc.find("200 OK"), std::string::npos);
    EXPECT_NE(status_doc.find("\"workers\":["), std::string::npos);
    EXPECT_NE(status_doc.find("\"id\":0"), std::string::npos);
    EXPECT_NE(status_doc.find("\"id\":1"), std::string::npos);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  run.join();

  EXPECT_GT(ok_scrapes, 0) << "no scrape ever reached the status server";
  ASSERT_EQ(history.records().size(), 6u);

  // After the run the board reflects the final round and every dispatched
  // job of it landed in an outcome bucket (same invariant the chaos run
  // pins, now read through the exposition surface).
  const auto final_doc = http_get(status.port(), "/status");
  EXPECT_NE(final_doc.find("\"round\":5"), std::string::npos);  // 0-based epochs
  EXPECT_NE(final_doc.find("\"collecting\":false"), std::string::npos);

  // Unknown targets 404 rather than confusing a scraper.
  EXPECT_NE(http_get(status.port(), "/nope").find("404"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Scenario plumbing for the chaos knobs

TEST(ChaosScenario, SpecStringRoundTripsChaosKnobs) {
  testing::ScenarioSpec spec;
  EXPECT_FALSE(spec.chaos_enabled());
  spec.seed = 314;
  spec.chaos_drop = 0.05;
  spec.chaos_dup = 0.05;
  spec.chaos_reorder = 0.1;
  spec.chaos_corrupt = 0.05;
  spec.chaos_truncate = 0.02;
  spec.chaos_disconnect = 0.02;
  EXPECT_TRUE(spec.chaos_enabled());
  EXPECT_NO_THROW(testing::validate_spec(spec));

  const auto back = testing::parse_spec_string(testing::to_spec_string(spec));
  EXPECT_EQ(back.chaos_drop, 0.05);
  EXPECT_EQ(back.chaos_dup, 0.05);
  EXPECT_EQ(back.chaos_reorder, 0.1);
  EXPECT_EQ(back.chaos_corrupt, 0.05);
  EXPECT_EQ(back.chaos_truncate, 0.02);
  EXPECT_EQ(back.chaos_disconnect, 0.02);
  EXPECT_TRUE(back.chaos_enabled());

  // The transport-form knobs carry over 1:1 and the chaos seed is a pure
  // function of the spec seed (replayability).
  const auto chaos = testing::build_chaos_options(back);
  EXPECT_TRUE(chaos.enabled());
  EXPECT_EQ(chaos.drop_rate, 0.05);
  EXPECT_EQ(chaos.duplicate_rate, 0.05);
  EXPECT_EQ(chaos.reorder_rate, 0.1);
  EXPECT_EQ(chaos.corrupt_rate, 0.05);
  EXPECT_EQ(chaos.truncate_rate, 0.02);
  EXPECT_EQ(chaos.disconnect_rate, 0.02);
  EXPECT_EQ(chaos.seed, testing::build_chaos_options(spec).seed);

  // Out-of-range rates are rejected like any other malformed spec.
  testing::ScenarioSpec bad = spec;
  bad.chaos_drop = 1.5;
  EXPECT_THROW(testing::validate_spec(bad), std::exception);
}

}  // namespace
}  // namespace haccs
