// Substrate micro-benchmarks (google-benchmark): the kernels every
// experiment leans on — the GEMM family (optimized and reference), both
// convolution directions, full train steps, one whole local training job,
// evaluation throughput, FedAvg accumulation, Hellinger distances, the
// population-scale summary pipeline and re-cluster, the Laplace mechanism,
// OPTICS, and device-profile sampling. Benches that run on the thread pool
// time real (wall) time.
#include <benchmark/benchmark.h>

#include <atomic>
#include <map>
#include <thread>

#include "src/clustering/optics.hpp"
#include "src/core/haccs_selector.hpp"
#include "src/core/haccs_system.hpp"
#include "src/core/pipeline.hpp"
#include "src/data/partition.hpp"
#include "src/fl/client.hpp"
#include "src/fl/compression.hpp"
#include "src/fl/engine.hpp"
#include "src/fl/net_driver.hpp"
#include "src/fl/protocol.hpp"
#include "src/hier/tree_dispatcher.hpp"
#include "src/net/loopback.hpp"
#include "src/net/crc32.hpp"
#include "src/net/frame.hpp"
#include "src/net/messages.hpp"
#include "src/net/topology.hpp"
#include "src/nn/loss.hpp"
#include "src/nn/model.hpp"
#include "src/nn/optimizer.hpp"
#include "src/sim/profile.hpp"
#include "src/stats/privacy.hpp"
#include "src/tensor/ops.hpp"
#include "src/tensor/vecops.hpp"

namespace haccs {
namespace {

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Tensor a({n, n}), b({n, n}), c({n, n});
  for (auto& v : a.data()) v = static_cast<float>(rng.normal());
  for (auto& v : b.data()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    ops::gemm(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->UseRealTime();

void BM_GemmBT(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Tensor a({n, n}), b({n, n}), c({n, n});
  for (auto& v : a.data()) v = static_cast<float>(rng.normal());
  for (auto& v : b.data()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    ops::gemm_bt(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmBT)->Arg(64)->Arg(256)->UseRealTime();

// The dense layers' real shapes, (m, n, k): one 30-sample client test set
// through Dense(256 -> 64) (evaluation), and a 32-sample minibatch through
// Dense(784 -> 64) (the training forward pass).
void BM_GemmBTShape(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto k = static_cast<std::size_t>(state.range(2));
  Rng rng(1);
  Tensor a({m, k}), b({n, k}), c({m, n});
  for (auto& v : a.data()) v = static_cast<float>(rng.normal());
  for (auto& v : b.data()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    ops::gemm_bt(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
}
BENCHMARK(BM_GemmBTShape)
    ->Args({30, 64, 256})
    ->Args({32, 64, 784})
    ->UseRealTime();

void BM_GemmAT(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Tensor a({n, n}), b({n, n}), c({n, n});
  for (auto& v : a.data()) v = static_cast<float>(rng.normal());
  for (auto& v : b.data()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    ops::gemm_at(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmAT)->Arg(64)->Arg(256)->UseRealTime();

void BM_GemmReference(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Tensor a({n, n}), b({n, n}), c({n, n});
  for (auto& v : a.data()) v = static_cast<float>(rng.normal());
  for (auto& v : b.data()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    ops::gemm_reference(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmReference)->Arg(64)->Arg(256)->UseRealTime();

void BM_Conv2dForward(benchmark::State& state) {
  const ops::Conv2dShape s{8, 1, 28, 28, 6, 5, 1, 2};
  Rng rng(2);
  Tensor input({s.batch, s.in_channels, s.in_h, s.in_w});
  Tensor weight({s.out_channels, s.in_channels, s.kernel, s.kernel});
  Tensor bias({s.out_channels});
  Tensor output({s.batch, s.out_channels, s.out_h(), s.out_w()});
  for (auto& v : input.data()) v = static_cast<float>(rng.normal());
  for (auto& v : weight.data()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    ops::conv2d_forward(s, input, weight, bias, output);
    benchmark::DoNotOptimize(output.raw());
  }
}
BENCHMARK(BM_Conv2dForward)->UseRealTime();

void BM_Conv2dBackward(benchmark::State& state) {
  const ops::Conv2dShape s{8, 1, 28, 28, 6, 5, 1, 2};
  Rng rng(2);
  Tensor input({s.batch, s.in_channels, s.in_h, s.in_w});
  Tensor weight({s.out_channels, s.in_channels, s.kernel, s.kernel});
  Tensor grad_output({s.batch, s.out_channels, s.out_h(), s.out_w()});
  Tensor grad_input({s.batch, s.in_channels, s.in_h, s.in_w});
  Tensor grad_weight({s.out_channels, s.in_channels, s.kernel, s.kernel});
  Tensor grad_bias({s.out_channels});
  for (auto& v : input.data()) v = static_cast<float>(rng.normal());
  for (auto& v : weight.data()) v = static_cast<float>(rng.normal());
  for (auto& v : grad_output.data()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    grad_weight.fill(0.0f);
    grad_bias.fill(0.0f);
    ops::conv2d_backward_params(s, input, grad_output, grad_weight, grad_bias);
    ops::conv2d_backward_input(s, grad_output, weight, grad_input);
    benchmark::DoNotOptimize(grad_input.raw());
  }
}
BENCHMARK(BM_Conv2dBackward)->UseRealTime();

void BM_MlpTrainStep(benchmark::State& state) {
  Rng rng(3);
  nn::Sequential model = nn::make_mlp(256, {64}, 10, rng);
  Tensor x({32, 256});
  for (auto& v : x.data()) v = static_cast<float>(rng.normal());
  std::vector<std::int64_t> labels(32);
  for (auto& l : labels) l = static_cast<std::int64_t>(rng.uniform_index(10));
  nn::SgdOptimizer opt({.learning_rate = 0.05});
  for (auto _ : state) {
    model.zero_grad();
    const Tensor logits = model.forward(x);
    auto loss = nn::softmax_cross_entropy(logits, labels);
    model.backward(loss.grad_logits);
    opt.step(model);
    benchmark::DoNotOptimize(loss.loss);
  }
}
BENCHMARK(BM_MlpTrainStep);

void BM_LocalTrainJob(benchmark::State& state) {
  // One paper-femnist-shaped local job as the in-process dispatcher runs
  // it: the job's model, set_parameters, train_local over 150 samples of
  // 28x28 (five batches of 32) with the default MLP, get_parameters.
  const data::SyntheticImageGenerator gen(
      data::SyntheticImageConfig::femnist_like(10));
  data::FederatedDataset fed;
  fed.num_classes = 10;
  data::ClientData client{data::Dataset(gen.sample_shape(), 10),
                          data::Dataset(gen.sample_shape(), 10)};
  Rng rng(23);
  for (std::int64_t label = 0; label < 10; ++label) {
    gen.fill(client.train, label, 15, rng);
  }
  fed.clients.push_back(std::move(client));
  const auto factory = core::default_model_factory(fed, 99);
  const std::vector<float> global = factory().get_parameters();
  fl::LocalWorkConfig work;
  work.local.batch_size = 32;
  work.local.sgd.learning_rate = 0.08;
  fl::InProcessDispatcher dispatcher(fed, factory, work);
  const fl::TrainJobSpec job{.rng_seed = 7};
  std::vector<fl::TrainOutcome> outcomes(1);
  for (auto _ : state) {
    dispatcher.execute({&job, 1}, global, outcomes);
    benchmark::DoNotOptimize(outcomes[0].updated.data());
  }
}
BENCHMARK(BM_LocalTrainJob)->UseRealTime();

void BM_Evaluation(benchmark::State& state) {
  // Test-set evaluation throughput through the const inference path — the
  // per-client cost of Population::evaluate in both engines.
  data::SyntheticImageConfig gcfg = data::SyntheticImageConfig::femnist_like(10);
  gcfg.height = 16;
  gcfg.width = 16;
  data::SyntheticImageGenerator gen(gcfg);
  data::Dataset set({1, 16, 16}, 10);
  Rng rng(9);
  for (std::int64_t label = 0; label < 10; ++label) {
    gen.fill(set, label, 64, rng);
  }
  nn::Sequential model = nn::make_cnn_mini(1, 16, 16, 10, rng);
  for (auto _ : state) {
    const auto r = fl::evaluate(model, set);
    benchmark::DoNotOptimize(r.accuracy);
  }
  state.SetItemsProcessed(state.iterations() * set.size());
}
BENCHMARK(BM_Evaluation)->UseRealTime();

void BM_PopulationEvaluate(benchmark::State& state) {
  // One population-wide evaluation in the population-1500 workload's
  // shape: 1500 clients x 30 test samples of 16x16, the default MLP.
  data::SyntheticImageConfig gcfg = data::SyntheticImageConfig::femnist_like(10);
  gcfg.height = 16;
  gcfg.width = 16;
  const data::SyntheticImageGenerator gen(gcfg);
  data::FederatedDataset fed;
  fed.num_classes = 10;
  Rng rng(21);
  for (std::size_t i = 0; i < 1500; ++i) {
    data::ClientData client{data::Dataset(gen.sample_shape(), 10),
                            data::Dataset(gen.sample_shape(), 10)};
    gen.fill(client.test, static_cast<std::int64_t>(i % 10), 30, rng);
    fed.clients.push_back(std::move(client));
  }
  const fl::Population population(fed, sim::LatencyModelConfig{}, 1);
  nn::Sequential model = core::default_model_factory(fed, 99)();
  for (auto _ : state) {
    const auto eval = population.evaluate(model);
    benchmark::DoNotOptimize(eval.accuracy);
  }
  state.SetItemsProcessed(state.iterations() * 1500 * 30);
}
BENCHMARK(BM_PopulationEvaluate)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_FedAvgAccumulate(benchmark::State& state) {
  // The server-side aggregation loop: weighted accumulation of K client
  // updates into a double buffer plus the final divide.
  const std::size_t params = static_cast<std::size_t>(state.range(0));
  const std::size_t clients = 10;
  Rng rng(10);
  std::vector<std::vector<float>> updates(clients,
                                          std::vector<float>(params));
  for (auto& u : updates) {
    for (auto& v : u) v = static_cast<float>(rng.normal());
  }
  std::vector<double> accumulated(params);
  std::vector<float> global(params);
  for (auto _ : state) {
    std::fill(accumulated.begin(), accumulated.end(), 0.0);
    double total_weight = 0.0;
    for (std::size_t i = 0; i < clients; ++i) {
      const double w = static_cast<double>(60 + i);
      vec::accumulate_scaled(accumulated, updates[i], w);
      total_weight += w;
    }
    for (std::size_t p = 0; p < params; ++p) {
      global[p] = static_cast<float>(accumulated[p] / total_weight);
    }
    benchmark::DoNotOptimize(global.data());
  }
  state.SetItemsProcessed(state.iterations() * clients * params);
}
BENCHMARK(BM_FedAvgAccumulate)->Arg(16384)->Arg(262144)->UseRealTime();

void BM_Hellinger(benchmark::State& state) {
  const auto bins = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  std::vector<double> p(bins), q(bins);
  for (auto& v : p) v = rng.uniform();
  for (auto& v : q) v = rng.uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::hellinger_distance(p, q));
  }
}
BENCHMARK(BM_Hellinger)->Arg(10)->Arg(62)->Arg(1024);

void BM_LaplaceMechanism(benchmark::State& state) {
  Rng rng(5);
  for (auto _ : state) {
    stats::Histogram h(62);
    for (std::size_t i = 0; i < 62; ++i) h.add_count(i, 100.0);
    stats::privatize_histogram(h, 0.1, rng);
    benchmark::DoNotOptimize(h.counts().data());
  }
}
BENCHMARK(BM_LaplaceMechanism);

/// A population-1500-like federation (16x16 femnist-like images at twice
/// the default noise, 90-210 samples per client), built once per client
/// count: google-benchmark re-enters a bench function while it sizes the
/// iteration count, and generation takes seconds.
const data::FederatedDataset& population_fed(std::size_t clients) {
  static std::map<std::size_t, data::FederatedDataset> cache;
  auto it = cache.find(clients);
  if (it == cache.end()) {
    auto image = data::SyntheticImageConfig::femnist_like(10);
    image.height = image.width = 16;
    image.noise_stddev *= 2.0;
    data::PartitionConfig pcfg;
    pcfg.num_clients = clients;
    pcfg.min_samples = 90;
    pcfg.max_samples = 210;
    pcfg.test_samples = 1;
    pcfg.style_brightness_stddev = 0.2;
    pcfg.style_contrast_stddev = 0.08;
    Rng rng(6);
    it = cache
             .emplace(clients, data::partition_majority_label(
                                   data::SyntheticImageGenerator(image), pcfg,
                                   rng))
             .first;
  }
  return it->second;
}

core::HaccsConfig conditional_haccs() {
  core::HaccsConfig cfg;
  cfg.summary = stats::SummaryKind::Conditional;
  return cfg;
}

void BM_SummaryPipeline(benchmark::State& state) {
  // The full exact client-summary -> distance-matrix -> clustering pipeline
  // over P(X|y) summaries at population scale.
  const auto& fed = population_fed(static_cast<std::size_t>(state.range(0)));
  const auto cfg = conditional_haccs();
  for (auto _ : state) {
    auto labels = core::cluster_clients(fed, cfg);
    benchmark::DoNotOptimize(labels.data());
  }
}
BENCHMARK(BM_SummaryPipeline)
    ->Arg(1500)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_HaccsRecluster(benchmark::State& state) {
  // A §IV-C re-cluster over unchanged data: summaries are recomputed and,
  // being bitwise equal, reuse the cached labels.
  const auto& fed = population_fed(static_cast<std::size_t>(state.range(0)));
  core::HaccsSelector selector(fed, conditional_haccs());
  for (auto _ : state) {
    selector.recluster(fed);
    benchmark::DoNotOptimize(selector.cluster_of().data());
  }
}
BENCHMARK(BM_HaccsRecluster)
    ->Arg(1500)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_Optics(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.uniform(0.0, 10.0);
  const auto m = clustering::DistanceMatrix::build(
      n, [&](std::size_t i, std::size_t j) { return std::abs(xs[i] - xs[j]); });
  for (auto _ : state) {
    auto result = clustering::optics(m, {.min_pts = 2});
    benchmark::DoNotOptimize(result.ordering.data());
  }
}
BENCHMARK(BM_Optics)->Arg(50)->Arg(200)->Arg(500);

void BM_DeviceProfileSample(benchmark::State& state) {
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::DeviceProfile::sample(rng));
  }
}
BENCHMARK(BM_DeviceProfileSample);

// ---------------------------------------------------------------------------
// Wire protocol (src/net): framing cost per update, both directions. The
// arg is the parameter count n; kind 0/1/2 = None/TopK/Int8, matching
// fl::CompressionKind. Items processed = parameters, so the reported rate
// is params/s through the codec.

fl::CompressionConfig net_bench_config(int kind) {
  fl::CompressionConfig config;
  config.kind = static_cast<fl::CompressionKind>(kind);
  config.topk_fraction = 0.1;
  return config;
}

net::ClientUpdateMsg net_bench_update(std::size_t n,
                                      const fl::CompressionConfig& config) {
  Rng rng(11);
  std::vector<float> update(n);
  for (auto& v : update) v = static_cast<float>(rng.normal());
  std::vector<float> residual;
  const auto compressed = fl::compress_update(update, config, residual);
  net::ClientUpdateMsg msg;
  msg.client_id = 1;
  msg.sample_count = 80;
  msg.update = fl::make_update_payload(compressed, n, config);
  return msg;
}

void BM_Crc32(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(12);
  std::vector<std::uint8_t> data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::crc32(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Crc32)->Arg(1024)->Arg(262144)->Arg(4194304);

void BM_EncodeUpdate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto config = net_bench_config(static_cast<int>(state.range(1)));
  const auto msg = net_bench_update(n, config);
  for (auto _ : state) {
    auto bytes = net::encode_frame(net::encode_client_update(msg));
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EncodeUpdate)
    ->Args({262144, 0})
    ->Args({262144, 1})
    ->Args({262144, 2});

void BM_DecodeUpdate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto config = net_bench_config(static_cast<int>(state.range(1)));
  const auto bytes =
      net::encode_frame(net::encode_client_update(net_bench_update(n, config)));
  for (auto _ : state) {
    net::Frame frame;
    if (net::decode_frame(bytes, &frame) != net::FrameStatus::Ok) {
      state.SkipWithError("frame decode failed");
      break;
    }
    auto msg = net::decode_client_update(frame);
    benchmark::DoNotOptimize(msg.update.dense.data());
    benchmark::DoNotOptimize(msg.update.values.data());
    benchmark::DoNotOptimize(msg.update.codes.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DecodeUpdate)
    ->Args({262144, 0})
    ->Args({262144, 1})
    ->Args({262144, 2});

/// The stream receive path of TcpTransport::recv: one
/// ~203 KB TrainJob frame (the paper-femnist model's downlink) fed in
/// 64 KiB socket-read chunks through a persistent FrameParser, polling
/// next() after every chunk. Loopback hands over whole frames and never
/// reaches the parser.
void BM_FrameParserReassembly(benchmark::State& state) {
  constexpr std::size_t kParams = 50750;
  constexpr std::size_t kChunk = 64 * 1024;
  Rng rng(13);
  net::TrainJobMsg job;
  job.params.resize(kParams);
  for (auto& v : job.params) v = static_cast<float>(rng.normal());
  const auto bytes = net::encode_frame(net::encode_train_job(job));
  const std::span<const std::uint8_t> stream(bytes);
  net::FrameParser parser;
  for (auto _ : state) {
    net::Frame frame;
    net::FrameStatus status = net::FrameStatus::NeedMore;
    for (std::size_t offset = 0; offset < stream.size(); offset += kChunk) {
      parser.feed(stream.subspan(offset,
                                 std::min(kChunk, stream.size() - offset)));
      status = parser.next(&frame);
    }
    if (status != net::FrameStatus::Ok) {
      state.SkipWithError("frame reassembly failed");
      break;
    }
    benchmark::DoNotOptimize(frame.payload.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_FrameParserReassembly);

// ---------------------------------------------------------------------------
// Flat vs tree round dispatch (DESIGN.md §5j): one full round's fan-out +
// collection over loopback transports against emulated peers (no training —
// the benchmark isolates the wire + fold path). The flat arm moves one dense
// ClientUpdate per worker to the server; the tree arm moves one f64 partial
// sum per aggregator, which is the uplink-compression story the
// hierarchy exists for. Bytes/s counters report the modeled root uplink.

constexpr std::size_t kRoundParams = 16384;
constexpr std::size_t kRoundWorkers = 8;

/// Emulated flat worker: echoes every TrainJob's params as a Dense update.
void bench_flat_worker(net::Transport& transport) {
  for (;;) {
    net::Frame frame;
    const auto status = transport.recv(&frame, 200);
    if (status == net::TransportStatus::Closed) return;
    if (status != net::TransportStatus::Ok) continue;
    if (frame.type == net::MessageType::Shutdown) return;
    if (frame.type != net::MessageType::TrainJob) continue;
    const auto msg = net::decode_train_job(frame);
    net::ClientUpdateMsg reply;
    reply.epoch = msg.epoch;
    reply.client_id = msg.client_id;
    reply.batches = 1;
    reply.sample_count = 10;
    reply.update.kind = net::UpdateKind::Dense;
    reply.update.size = msg.params.size();
    reply.update.dense = msg.params;
    if (transport.send(net::encode_client_update(reply), 5000) !=
        net::TransportStatus::Ok) {
      return;
    }
  }
}

/// Emulated mid-tier aggregator: answers each SubtreeRound with one
/// SubtreeUpdate carrying the weighted partial sum and the client stats.
void bench_tree_agg(net::Transport& transport, std::uint32_t agg_id) {
  for (;;) {
    net::Frame frame;
    const auto status = transport.recv(&frame, 200);
    if (status == net::TransportStatus::Closed) return;
    if (status != net::TransportStatus::Ok) continue;
    if (frame.type == net::MessageType::Shutdown) return;
    if (frame.type != net::MessageType::SubtreeRound) continue;
    const auto round = net::decode_subtree_round(frame);
    net::SubtreeUpdateMsg update;
    update.epoch = round.epoch;
    update.agg_id = agg_id;
    update.weight = 10.0 * round.jobs.size();
    update.sum.reserve(round.params.size());
    for (const float p : round.params) {
      update.sum.push_back(update.weight * static_cast<double>(p));
    }
    for (const net::SubtreeJob& job : round.jobs) {
      net::SubtreeClientStat stat;
      stat.client_id = job.client_id;
      stat.delivered = 1;
      stat.sample_count = 10;
      stat.batches = 1;
      update.stats.push_back(stat);
    }
    if (transport.send(net::encode_subtree_update(update), 5000) !=
        net::TransportStatus::Ok) {
      return;
    }
  }
}

std::vector<fl::TrainJobSpec> bench_round_jobs() {
  std::vector<fl::TrainJobSpec> jobs(kRoundWorkers);
  for (std::size_t w = 0; w < kRoundWorkers; ++w) {
    jobs[w].slot = w;
    jobs[w].client_id = w;
  }
  return jobs;
}

void BM_FlatRoundDispatch(benchmark::State& state) {
  std::vector<net::LoopbackPair> pairs;
  std::vector<net::Transport*> server_side;
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kRoundWorkers; ++w) {
    pairs.push_back(net::make_loopback_pair());
    server_side.push_back(pairs.back().a.get());
  }
  for (std::size_t w = 0; w < kRoundWorkers; ++w) {
    workers.emplace_back([&, w] { bench_flat_worker(*pairs[w].b); });
  }

  fl::TransportDispatcherConfig config;
  config.recv_timeout_ms = 30000;
  fl::TransportDispatcher dispatcher(server_side, config);
  const auto jobs = bench_round_jobs();
  const std::vector<float> params(kRoundParams, 1.0f);
  for (auto _ : state) {
    std::vector<fl::TrainOutcome> outcomes(jobs.size());
    dispatcher.execute(jobs, params, outcomes);
    benchmark::DoNotOptimize(outcomes.data());
  }
  for (auto& pair : pairs) pair.a->send(net::encode_shutdown(), 1000);
  for (auto& thread : workers) thread.join();
  // Root uplink: one dense f32 update per worker per round.
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRoundWorkers *
                                                    kRoundParams *
                                                    sizeof(float)));
}
BENCHMARK(BM_FlatRoundDispatch)->Unit(benchmark::kMillisecond);

void BM_TreeRoundDispatch(benchmark::State& state) {
  const auto num_aggs = static_cast<std::size_t>(state.range(0));
  std::vector<net::LoopbackPair> pairs;
  std::vector<net::Transport*> root_side;
  std::vector<std::thread> aggs;
  for (std::size_t a = 0; a < num_aggs; ++a) {
    pairs.push_back(net::make_loopback_pair());
    root_side.push_back(pairs.back().a.get());
  }
  for (std::size_t a = 0; a < num_aggs; ++a) {
    aggs.emplace_back([&, a] {
      bench_tree_agg(*pairs[a].b, static_cast<std::uint32_t>(a));
    });
  }

  fl::TransportDispatcherConfig config;
  config.recv_timeout_ms = 30000;
  hier::TreeDispatcher dispatcher(root_side, config,
                                  net::Topology(kRoundWorkers, num_aggs));
  const auto jobs = bench_round_jobs();
  const std::vector<float> params(kRoundParams, 1.0f);
  for (auto _ : state) {
    std::vector<fl::TrainOutcome> outcomes(jobs.size());
    dispatcher.execute(jobs, params, outcomes);
    benchmark::DoNotOptimize(outcomes.data());
  }
  for (auto& pair : pairs) pair.a->send(net::encode_shutdown(), 1000);
  for (auto& thread : aggs) thread.join();
  // Root uplink: one f64 partial sum per aggregator per round,
  // independent of the worker count — the fan-in win.
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(num_aggs * kRoundParams *
                                                    sizeof(double)));
  state.counters["aggs"] = static_cast<double>(num_aggs);
}
BENCHMARK(BM_TreeRoundDispatch)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace haccs

BENCHMARK_MAIN();
