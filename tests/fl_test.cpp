// Tests for src/fl: local training, evaluation, training history / TTA, and
// the round engine's invariants (determinism, monotone simulated time,
// selection constraints, FedAvg aggregation).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "src/common/error.hpp"
#include "src/common/threadpool.hpp"
#include "src/core/haccs_system.hpp"
#include "src/data/partition.hpp"
#include "src/fl/dispatch.hpp"
#include "src/fl/engine.hpp"
#include "src/fl/evaluation.hpp"
#include "src/fl/fedprox.hpp"
#include "src/nn/loss.hpp"
#include "src/fl/history.hpp"
#include "src/select/random_selector.hpp"
#include "tests/helpers.hpp"

namespace haccs::fl {
namespace {

data::SyntheticImageGenerator tiny_gen(std::size_t classes = 4) {
  data::SyntheticImageConfig cfg;
  cfg.classes = classes;
  cfg.height = 6;
  cfg.width = 6;
  cfg.noise_stddev = 0.2;
  return data::SyntheticImageGenerator(cfg);
}

data::FederatedDataset tiny_fed(std::size_t clients = 8) {
  auto gen = tiny_gen();
  data::PartitionConfig cfg;
  cfg.num_clients = clients;
  cfg.min_samples = 30;
  cfg.max_samples = 50;
  cfg.test_samples = 12;
  Rng rng(77);
  return data::partition_majority_label(gen, cfg, rng);
}

std::function<nn::Sequential()> tiny_model_factory(std::size_t classes = 4) {
  return [classes] {
    Rng rng(5);
    nn::Sequential model;
    model.add(std::make_unique<nn::Flatten>());
    model.add(std::make_unique<nn::Dense>(36, 16, rng));
    model.add(std::make_unique<nn::ReLU>());
    model.add(std::make_unique<nn::Dense>(16, classes, rng));
    return model;
  };
}

TEST(TrainLocal, ReducesLossOnLocalData) {
  const auto fed = tiny_fed(2);
  auto model = tiny_model_factory()();
  Rng rng(1);
  LocalTrainConfig cfg;
  cfg.epochs = 20;
  cfg.sgd.learning_rate = 0.05;
  const auto result = train_local(model, fed.clients[0].train, cfg, rng);
  EXPECT_GT(result.batches, 0u);
  EXPECT_LT(result.final_loss, std::log(4.0));  // better than uniform
}

std::vector<std::uint32_t> bits_of(const std::vector<float>& values) {
  std::vector<std::uint32_t> bits;
  for (float v : values) bits.push_back(std::bit_cast<std::uint32_t>(v));
  return bits;
}

// Sequential::backward stops at the first layer with parameters and skips
// its input gradient; the parameter gradients must still be exactly those
// of the full per-layer backward chain.
TEST(Sequential, BackwardSkipsOnlyTheInputGradient) {
  Rng rng(41);
  data::FederatedDataset fed;
  fed.num_classes = 10;
  fed.clients.push_back(
      {data::Dataset({1, 12, 12}, 10), data::Dataset({1, 12, 12}, 10)});
  struct Case {
    const char* name;
    nn::Sequential model;
    std::vector<std::size_t> input_shape;
  };
  std::vector<Case> cases;
  cases.push_back({"make_mlp", nn::make_mlp(20, {16, 8}, 10, rng), {6, 20}});
  cases.push_back({"default factory MLP",
                   core::default_model_factory(fed, 99)(), {6, 1, 12, 12}});
  cases.push_back({"LeNet", nn::make_lenet(1, 12, 12, 10, rng), {6, 1, 12, 12}});
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    Tensor x(c.input_shape);
    for (auto& v : x.data()) v = static_cast<float>(rng.normal(0, 0.5));
    std::vector<std::int64_t> labels(c.input_shape[0]);
    for (auto& l : labels) l = static_cast<std::int64_t>(rng.uniform_index(10));
    const Tensor logits = c.model.forward(x);
    const auto loss = nn::softmax_cross_entropy(logits, labels);

    c.model.zero_grad();
    Tensor g = loss.grad_logits;
    for (std::size_t i = c.model.layer_count(); i-- > 0;) {
      g = c.model.layer(i).backward(g);
    }
    EXPECT_EQ(g.shape(), x.shape());
    const auto chained = flat_gradients(c.model);

    c.model.zero_grad();
    c.model.backward(loss.grad_logits);
    EXPECT_EQ(bits_of(flat_gradients(c.model)), bits_of(chained));

    // A fill that zero_grad defers still reads as zero.
    c.model.zero_grad();
    EXPECT_EQ(bits_of(flat_gradients(c.model)),
              bits_of(std::vector<float>(chained.size(), 0.0f)));
  }
}

// The dispatchers train a clone of one prototype instead of a fresh
// factory model per job: both local algorithms must give the same bits,
// and the prototype must come out of it untouched.
TEST(Sequential, CloneTrainsLikeTheFactoryModel) {
  const auto fed = tiny_fed(2);
  const auto& data = fed.clients[0].train;
  for (const bool use_cnn : {false, true}) {
    SCOPED_TRACE(use_cnn ? "LeNet" : "MLP");
    const auto factory = core::default_model_factory(fed, 99, use_cnn);
    const nn::Sequential prototype = factory();
    const auto initial = prototype.get_parameters();
    auto global = initial;
    for (std::size_t i = 0; i < global.size(); ++i) {
      global[i] += 0.01f * static_cast<float>(i % 7);
    }
    LocalTrainConfig local;
    local.epochs = 2;
    local.batch_size = 8;
    local.sgd.learning_rate = 0.05;
    local.sgd.momentum = 0.5;
    FedProxConfig prox;
    prox.local = local;
    prox.mu = 0.1;
    prox.work_fraction = 0.7;

    auto trained = [&](nn::Sequential model, bool fedprox) {
      Rng rng(17);
      if (fedprox) {
        train_local_fedprox(model, global, data, prox, rng);
      } else {
        model.set_parameters(global);
        train_local(model, data, local, rng);
      }
      return bits_of(model.get_parameters());
    };
    for (const bool fedprox : {false, true}) {
      SCOPED_TRACE(fedprox ? "FedProx" : "FedAvg");
      const auto want = trained(factory(), fedprox);
      EXPECT_NE(want, bits_of(global));
      EXPECT_EQ(trained(prototype.clone(), fedprox), want);
    }
    EXPECT_EQ(bits_of(prototype.get_parameters()), bits_of(initial));
    EXPECT_EQ(flat_gradients(prototype),
              std::vector<float>(initial.size(), 0.0f));
  }
}

// InProcessDispatcher claims jobs longest first from one cursor across
// min(jobs, pool + 1) lanes. Which lane or clone trains a job must not
// change a bit of its outcome.
TEST(InProcessDispatcher, LongestFirstLanesKeepEveryBit) {
  const auto gen = tiny_gen();
  // Train sizes with batch_size 8: 3, 9, 5, 9, 2, 6 and 2 batches.
  const std::size_t sizes[] = {20, 70, 33, 65, 9, 41, 16};
  data::FederatedDataset fed;
  fed.num_classes = 4;
  Rng rng(31);
  for (std::size_t c = 0; c < std::size(sizes); ++c) {
    data::ClientData client{data::Dataset(gen.sample_shape(), 4),
                            data::Dataset(gen.sample_shape(), 4)};
    gen.fill(client.train, static_cast<std::int64_t>(c % 4), sizes[c], rng);
    fed.clients.push_back(std::move(client));
  }
  LocalWorkConfig work;
  work.local.batch_size = 8;
  work.local.sgd.learning_rate = 0.05;
  work.fedprox = true;
  // Slot s trains client_of[s]; slot 3's 9 batches at work fraction 0.5
  // cost 4.5 and sort after slot 0's 5. Slots 5 and 6 tie at 2.
  const std::size_t client_of[] = {2, 0, 3, 1, 5, 6, 4};
  std::vector<TrainJobSpec> jobs;
  for (std::size_t s = 0; s < std::size(client_of); ++s) {
    jobs.push_back({.slot = s,
                    .client_id = client_of[s],
                    .rng_seed = 100 + s,
                    .work_fraction = s == 3 ? 0.5 : 1.0});
  }
  const std::vector<TrainJobSpec> reversed(jobs.rbegin(), jobs.rend());
  const std::vector<std::size_t> want_slots = {2, 4, 0, 3, 1, 5, 6};
  const auto claimed_slots = [&](const std::vector<TrainJobSpec>& js) {
    std::vector<std::size_t> slots;
    for (std::size_t j : longest_first(js, fed, work.local)) {
      slots.push_back(js[j].slot);
    }
    return slots;
  };
  EXPECT_EQ(claimed_slots(jobs), want_slots);
  EXPECT_EQ(claimed_slots(reversed), want_slots);

  const auto factory = tiny_model_factory();
  std::vector<float> global = factory().get_parameters();
  for (std::size_t i = 0; i < global.size(); ++i) {
    global[i] += 0.01f * static_cast<float>(i % 5);
  }
  // Each job alone on a fresh model: what every schedule must reproduce.
  std::vector<std::vector<std::uint32_t>> want(jobs.size());
  std::vector<LocalTrainResult> want_result(jobs.size());
  for (const TrainJobSpec& job : jobs) {
    nn::Sequential model = factory();
    std::vector<float> residual, updated;
    want_result[job.slot] =
        run_local_job(job, fed.clients[job.client_id].train, model, global,
                      work, residual, updated);
    want[job.slot] = bits_of(updated);
  }

  InProcessDispatcher dispatcher(fed, factory, work);
  const auto check = [&](const char* name, const std::vector<TrainJobSpec>& js,
                         bool in_pool_task) {
    SCOPED_TRACE(name);
    std::vector<TrainOutcome> outcomes(js.size());
    if (in_pool_task) {
      // parallel_for runs inline inside a pool task: one lane.
      ThreadPool::global()
          .submit([&] { dispatcher.execute(js, global, outcomes); })
          .get();
    } else {
      dispatcher.execute(js, global, outcomes);
    }
    for (std::size_t s = 0; s < outcomes.size(); ++s) {
      SCOPED_TRACE("slot " + std::to_string(s));
      EXPECT_TRUE(outcomes[s].delivered);
      EXPECT_EQ(bits_of(outcomes[s].updated), want[s]);
      EXPECT_EQ(outcomes[s].result.batches, want_result[s].batches);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(outcomes[s].result.average_loss),
                std::bit_cast<std::uint64_t>(want_result[s].average_loss));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(outcomes[s].result.final_loss),
                std::bit_cast<std::uint64_t>(want_result[s].final_loss));
    }
  };
  check("global pool", jobs, false);
  check("inside a pool task", jobs, true);
  check("reversed span", reversed, false);
}

TEST(TrainLocal, RejectsEmptyDatasetAndBadConfig) {
  data::Dataset empty({1, 2, 2}, 3);
  auto model = tiny_model_factory()();
  Rng rng(1);
  EXPECT_THROW(train_local(model, empty, {}, rng), std::invalid_argument);

  const auto fed = tiny_fed(2);
  LocalTrainConfig zero_batch;
  zero_batch.batch_size = 0;
  EXPECT_THROW(train_local(model, fed.clients[0].train, zero_batch, rng),
               std::invalid_argument);
}

TEST(Evaluate, UniformModelNearChance) {
  const auto fed = tiny_fed(2);
  auto model = tiny_model_factory()();
  // Zero all parameters: logits all equal => argmax is class 0 everywhere.
  std::vector<float> zeros(model.parameter_count(), 0.0f);
  model.set_parameters(zeros);
  const auto result = evaluate(model, fed.clients[0].test);
  EXPECT_NEAR(result.loss, std::log(4.0), 1e-4);
  EXPECT_EQ(result.samples, fed.clients[0].test.size());
}

TEST(Evaluate, EmptyDatasetGivesZeros) {
  data::Dataset empty({1, 2, 2}, 3);
  auto model = tiny_model_factory()();
  const auto result = evaluate(model, empty);
  EXPECT_EQ(result.samples, 0u);
  EXPECT_DOUBLE_EQ(result.accuracy, 0.0);
}

TEST(BlockedEvaluator, RejectsMixedSampleShapes) {
  const data::Dataset a({1, 2, 2}, 3), b({1, 3, 3}, 3);
  EXPECT_THROW(BlockedEvaluator({&a, &b}), std::invalid_argument);
  EXPECT_THROW(BlockedEvaluator({&a}, 0), std::invalid_argument);
}

TEST(History, TimeToAccuracyFindsFirstCrossing) {
  TrainingHistory h;
  h.add({.epoch = 0, .sim_time_s = 10.0, .global_accuracy = 0.2});
  h.add({.epoch = 1, .sim_time_s = 20.0, .global_accuracy = 0.55});
  h.add({.epoch = 2, .sim_time_s = 30.0, .global_accuracy = 0.52});
  h.add({.epoch = 3, .sim_time_s = 40.0, .global_accuracy = 0.9});
  EXPECT_DOUBLE_EQ(h.time_to_accuracy(0.5), 20.0);
  EXPECT_DOUBLE_EQ(h.time_to_accuracy(0.9), 40.0);
  EXPECT_EQ(h.time_to_accuracy(0.95), kNeverReached);
  EXPECT_EQ(h.epochs_to_accuracy(0.5), 1u);
  EXPECT_DOUBLE_EQ(h.best_accuracy(), 0.9);
  EXPECT_DOUBLE_EQ(h.final_accuracy(), 0.9);
  EXPECT_DOUBLE_EQ(h.total_time(), 40.0);
}

TEST(History, RejectsNonMonotoneTime) {
  TrainingHistory h;
  h.add({.epoch = 0, .sim_time_s = 10.0});
  EXPECT_THROW(h.add({.epoch = 1, .sim_time_s = 5.0}), InternalError);
}

TEST(History, SelectionCounts) {
  TrainingHistory h;
  h.add({.epoch = 0, .sim_time_s = 1.0, .selected = {0, 2}});
  h.add({.epoch = 1, .sim_time_s = 2.0, .selected = {2}});
  const auto counts = h.selection_counts(3);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 2u);
}

TEST(History, FormatTta) {
  EXPECT_EQ(format_tta(kNeverReached), "never");
  EXPECT_EQ(format_tta(12.345), "12.3");
}

TEST(Engine, ValidatesConfig) {
  const auto fed = tiny_fed(4);
  EXPECT_THROW(FederatedTrainer(fed, tiny_model_factory(),
                                {.rounds = 1, .clients_per_round = 0}),
               std::invalid_argument);
  EXPECT_THROW(FederatedTrainer(fed, tiny_model_factory(),
                                {.rounds = 1, .clients_per_round = 5}),
               std::invalid_argument);
}

TEST(Engine, ClientViewHasLatenciesAndSamples) {
  const auto fed = tiny_fed(6);
  FederatedTrainer trainer(fed, tiny_model_factory(),
                           {.rounds = 1, .clients_per_round = 2});
  const auto view = trainer.make_client_view();
  ASSERT_EQ(view.size(), 6u);
  for (std::size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(view[i].id, i);
    EXPECT_GT(view[i].latency_s, 0.0);
    EXPECT_EQ(view[i].num_samples, fed.clients[i].train.size());
    EXPECT_TRUE(view[i].available);
  }
}

TEST(Engine, SameSeedSameProfiles) {
  const auto fed = tiny_fed(6);
  FederatedTrainer t1(fed, tiny_model_factory(), {.rounds = 1, .clients_per_round = 2, .seed = 9});
  FederatedTrainer t2(fed, tiny_model_factory(), {.rounds = 1, .clients_per_round = 2, .seed = 9});
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(t1.profiles()[i].compute_multiplier,
                     t2.profiles()[i].compute_multiplier);
    EXPECT_DOUBLE_EQ(t1.profiles()[i].bandwidth_mbps,
                     t2.profiles()[i].bandwidth_mbps);
  }
  FederatedTrainer t3(fed, tiny_model_factory(), {.rounds = 1, .clients_per_round = 2, .seed = 10});
  bool any_diff = false;
  for (std::size_t i = 0; i < 6; ++i) {
    any_diff |= t1.profiles()[i].bandwidth_mbps != t3.profiles()[i].bandwidth_mbps;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Engine, RunProducesOneRecordPerRound) {
  const auto fed = tiny_fed(6);
  EngineConfig cfg;
  cfg.rounds = 8;
  cfg.clients_per_round = 3;
  cfg.eval_every = 4;
  FederatedTrainer trainer(fed, tiny_model_factory(), cfg);
  select::RandomSelector selector;
  const auto history = trainer.run(selector);
  ASSERT_EQ(history.records().size(), 8u);
  double prev = 0.0;
  for (const auto& r : history.records()) {
    EXPECT_GE(r.sim_time_s, prev);
    prev = r.sim_time_s;
    EXPECT_LE(r.selected.size(), 3u);
    EXPECT_GT(r.selected.size(), 0u);
  }
}

TEST(Engine, DeterministicAcrossRuns) {
  const auto fed = tiny_fed(6);
  EngineConfig cfg;
  cfg.rounds = 6;
  cfg.clients_per_round = 2;
  cfg.eval_every = 3;
  cfg.seed = 21;
  FederatedTrainer trainer(fed, tiny_model_factory(), cfg);
  select::RandomSelector s1, s2;
  const auto h1 = trainer.run(s1);
  const auto h2 = trainer.run(s2);
  ASSERT_EQ(h1.records().size(), h2.records().size());
  for (std::size_t i = 0; i < h1.records().size(); ++i) {
    EXPECT_EQ(h1.records()[i].selected, h2.records()[i].selected);
    EXPECT_DOUBLE_EQ(h1.records()[i].global_accuracy,
                     h2.records()[i].global_accuracy);
    EXPECT_DOUBLE_EQ(h1.records()[i].sim_time_s, h2.records()[i].sim_time_s);
  }
}

TEST(Engine, RespectsDropoutMask) {
  const auto fed = tiny_fed(6);
  EngineConfig cfg;
  cfg.rounds = 5;
  cfg.clients_per_round = 2;
  FederatedTrainer trainer(fed, tiny_model_factory(), cfg);
  // Clients 0-2 permanently dropped: they must never be selected.
  const auto schedule = sim::make_group_dropout({0, 0, 0, 1, 1, 1}, {0}, 0);
  select::RandomSelector selector;
  const auto history = trainer.run(selector, *schedule);
  for (const auto& r : history.records()) {
    for (std::size_t id : r.selected) EXPECT_GE(id, 3u);
  }
}

TEST(Engine, TrainingImprovesAccuracy) {
  const auto fed = tiny_fed(6);
  EngineConfig cfg;
  cfg.rounds = 60;
  cfg.clients_per_round = 3;
  cfg.eval_every = 10;
  cfg.local.epochs = 2;
  cfg.local.sgd.learning_rate = 0.1;
  FederatedTrainer trainer(fed, tiny_model_factory(), cfg);
  select::RandomSelector selector;
  const auto history = trainer.run(selector);
  // 4 classes, skewed: chance is 0.25; training must clearly beat it.
  EXPECT_GT(history.best_accuracy(), 0.5);
  EXPECT_EQ(trainer.final_per_client_accuracy().size(), 6u);
}

TEST(Engine, RoundDurationIsSelectedStragglerLatency) {
  const auto fed = tiny_fed(5);
  EngineConfig cfg;
  cfg.rounds = 3;
  cfg.clients_per_round = 2;
  FederatedTrainer trainer(fed, tiny_model_factory(), cfg);
  select::RandomSelector selector;
  const auto history = trainer.run(selector);
  for (const auto& r : history.records()) {
    double max_latency = 0.0;
    for (std::size_t id : r.selected) {
      max_latency =
          std::max(max_latency, trainer.client_latency_at(id, r.epoch));
    }
    EXPECT_DOUBLE_EQ(r.round_duration_s, max_latency);
  }
}

TEST(Engine, LatencyJitterIsDeterministicAndBounded) {
  const auto fed = tiny_fed(4);
  EngineConfig cfg;
  cfg.rounds = 2;
  cfg.clients_per_round = 2;
  cfg.latency_jitter_sigma = 0.2;
  FederatedTrainer trainer(fed, tiny_model_factory(), cfg);
  // Deterministic: the same (epoch, client) always yields the same value.
  EXPECT_DOUBLE_EQ(trainer.client_latency_at(1, 3),
                   trainer.client_latency_at(1, 3));
  // Varies across epochs and stays positive.
  bool varies = false;
  for (std::size_t e = 0; e < 10; ++e) {
    const double l = trainer.client_latency_at(1, e);
    EXPECT_GT(l, 0.0);
    varies |= l != trainer.client_latency(1);
  }
  EXPECT_TRUE(varies);

  // Sigma 0 disables jitter entirely.
  cfg.latency_jitter_sigma = 0.0;
  FederatedTrainer no_jitter(fed, tiny_model_factory(), cfg);
  for (std::size_t e = 0; e < 5; ++e) {
    EXPECT_DOUBLE_EQ(no_jitter.client_latency_at(2, e),
                     no_jitter.client_latency(2));
  }
}

}  // namespace
}  // namespace haccs::fl
