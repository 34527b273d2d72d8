// Bit-identity pins for the optimized compute paths.
//
// FNV-1a digests over GEMM outputs and over every client's evaluation
// result, one constant per kernel path: the AVX2+FMA blocked backend (what
// CPU dispatch picks on x86-64 with AVX2), the portable blocked backend
// (HACCS_PORTABLE_KERNELS=1; tests/CMakeLists.txt reruns this suite under
// it) and KernelBackend::kReference. A change that reorders any float
// operation on one of those paths moves its digest. Update a pin only for a
// deliberate change to the arithmetic, never to make a refactor pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/threadpool.hpp"
#include "src/core/haccs_system.hpp"
#include "src/data/synthetic.hpp"
#include "src/fl/client.hpp"
#include "src/fl/engine.hpp"
#include "src/fl/evaluation.hpp"
#include "src/nn/loss.hpp"
#include "src/tensor/ops.hpp"
#include "tests/helpers.hpp"

namespace haccs {
namespace {

class Fnv1a {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) hash_ = (hash_ ^ b) * 0x100000001b3ULL;
  }
  void add(const Tensor& t) {
    for (float v : t.data()) add(v);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// One pinned constant per kernel path.
struct PathPins {
  std::uint64_t avx2, portable, reference;
};

/// The constant for the path the dispatching kernels take right now, or 0
/// off x86-64, where the compiler may contract the plain loops into FMAs
/// and no path is pinned.
std::uint64_t expected_for_active_path(const PathPins& pins) {
#if defined(__x86_64__)
  if (ops::kernel_backend() == ops::KernelBackend::kReference) {
    return pins.reference;
  }
  if (std::getenv("HACCS_PORTABLE_KERNELS") != nullptr ||
      !__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma")) {
    return pins.portable;
  }
  return pins.avx2;
#else
  (void)pins;
  return 0;
#endif
}

/// Runs `check` under the default backend and under kReference, restoring
/// the backend afterwards.
template <typename Check>
void for_each_backend(Check&& check) {
  const auto previous = ops::kernel_backend();
  for (const auto backend :
       {ops::KernelBackend::kOptimized, ops::KernelBackend::kReference}) {
    ops::set_kernel_backend(backend);
    SCOPED_TRACE(backend == ops::KernelBackend::kReference ? "kReference"
                                                           : "kOptimized");
    check();
  }
  ops::set_kernel_backend(previous);
}

#define EXPECT_PIN(actual_expr, pins)                                    \
  do {                                                                   \
    const std::uint64_t actual = (actual_expr);                          \
    const std::uint64_t want = expected_for_active_path(pins);           \
    if (want == 0) {                                                     \
      GTEST_SKIP() << "no pin for this ISA; digest 0x" << std::hex       \
                   << actual;                                            \
    }                                                                    \
    EXPECT_EQ(actual, want) << "digest 0x" << std::hex << actual;        \
  } while (0)

Tensor random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Tensor t({rows, cols});
  for (float& v : t.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

/// Every (m, n, k) of the grid through gemm, gemm_bt and gemm_at, first
/// overwriting C and then accumulating onto it. The grid crosses the MR/NR
/// fringes (m = 1, 5, 7, 121; n = 10, 17, 64), both sides of the small-GEMM
/// cutoff, and depths past KC = 256 (k = 257, 784), where the blocked
/// kernel adds a second depth block onto C.
std::uint64_t gemm_digest() {
  Fnv1a h;
  Rng rng(2024);
  for (std::size_t m : {1, 5, 7, 121}) {
    for (std::size_t n : {10, 17, 64}) {
      for (std::size_t k : {3, 64, 257, 784}) {
        const Tensor a = random_matrix(m, k, rng);
        const Tensor b = random_matrix(k, n, rng);
        const Tensor bt = random_matrix(n, k, rng);
        const Tensor at = random_matrix(k, m, rng);
        Tensor c({m, n});
        ops::gemm(a, b, c);
        h.add(c);
        ops::gemm(a, b, c, /*accumulate=*/true);
        h.add(c);
        ops::gemm_bt(a, bt, c);
        h.add(c);
        ops::gemm_bt(a, bt, c, /*accumulate=*/true);
        h.add(c);
        ops::gemm_at(at, b, c);
        h.add(c);
        ops::gemm_at(at, b, c, /*accumulate=*/true);
        h.add(c);
      }
    }
  }
  return h.value();
}

TEST(KernelPins, GemmDigestsArePinned) {
  for_each_backend([] {
    EXPECT_PIN(gemm_digest(), (PathPins{0x4749bfb07bc9c095ULL,
                                        0x319704ce5afaf95aULL,
                                        0x8009d9f614a67e21ULL}));
  });
}

// ---- Population evaluation ----

/// Test sets of 1, 6, 7, 30, 128, 129 and 300 samples, twice over: single
/// samples and 1-sample chunk tails fall under the small-GEMM cutoff in
/// the last dense layer, 128/129/300 span several 128-sample chunks.
data::FederatedDataset pin_federation() {
  data::SyntheticImageConfig cfg;
  cfg.height = 12;
  cfg.width = 12;
  const data::SyntheticImageGenerator gen(cfg);
  data::FederatedDataset fed;
  fed.num_classes = cfg.classes;
  Rng rng(31);
  for (int copy = 0; copy < 2; ++copy) {
    for (std::size_t tests : {1, 6, 7, 30, 128, 129, 300}) {
      data::ClientData client{data::Dataset(gen.sample_shape(), cfg.classes),
                              data::Dataset(gen.sample_shape(), cfg.classes)};
      const auto any_label = [&](Rng& r) {
        return static_cast<std::int64_t>(r.uniform_int(
            0, static_cast<std::int64_t>(cfg.classes) - 1));
      };
      gen.fill(client.train, 4, rng, any_label, 0.0, {});
      gen.fill(client.test, tests, rng, any_label, 0.0, {});
      fed.clients.push_back(std::move(client));
    }
  }
  return fed;
}

/// The per-client evaluation loop as it stood when these pins were taken:
/// one inference and one softmax_cross_entropy per 128-sample batch.
fl::EvalResult oracle_evaluate(const nn::Sequential& model,
                               const data::Dataset& dataset) {
  constexpr std::size_t kBatch = 128;
  fl::EvalResult result;
  double loss_sum = 0.0;
  std::size_t correct = 0;
  std::vector<std::size_t> indices(dataset.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  for (std::size_t start = 0; start < indices.size(); start += kBatch) {
    const std::size_t end = std::min(indices.size(), start + kBatch);
    const std::span<const std::size_t> batch(indices.data() + start,
                                             end - start);
    const Tensor logits = infer_copy(model, dataset.batch_features(batch));
    const auto loss =
        nn::softmax_cross_entropy(logits, dataset.batch_labels(batch));
    loss_sum += loss.loss * static_cast<double>(batch.size());
    correct += loss.correct;
  }
  result.samples = dataset.size();
  result.loss = loss_sum / static_cast<double>(dataset.size());
  result.accuracy =
      static_cast<double>(correct) / static_cast<double>(dataset.size());
  return result;
}

/// Evaluates through Population::evaluate, checks every client against the
/// oracle bit for bit, and digests the oracle's per-client results plus
/// the population means.
std::uint64_t population_digest(const data::FederatedDataset& fed,
                                const fl::Population& population,
                                nn::Sequential& model) {
  std::vector<double> per_client;
  const auto eval = population.evaluate(model, &per_client);
  EXPECT_EQ(per_client.size(), fed.clients.size());
  Fnv1a h;
  double accuracy = 0.0, loss = 0.0;
  for (std::size_t i = 0; i < fed.clients.size(); ++i) {
    const auto want = oracle_evaluate(model, fed.clients[i].test);
    EXPECT_EQ(per_client[i], want.accuracy) << "client " << i;
    accuracy += want.accuracy;
    loss += want.loss;
    h.add(want.accuracy);
    h.add(want.loss);
  }
  const auto n = static_cast<double>(fed.clients.size());
  EXPECT_EQ(eval.accuracy, accuracy / n);
  EXPECT_EQ(eval.loss, loss / n);
  h.add(eval.accuracy);
  h.add(eval.loss);
  return h.value();
}

/// The digest at the global pool's width and again with every parallel_for
/// inline (evaluation started from inside a pool task); both must agree.
std::uint64_t population_digest_two_widths(bool use_cnn) {
  const auto fed = pin_federation();
  const fl::Population population(fed, sim::LatencyModelConfig{}, 5);
  auto model = core::default_model_factory(fed, 99, use_cnn)();
  const std::uint64_t wide = population_digest(fed, population, model);
  std::uint64_t narrow = 0;
  ThreadPool::global()
      .submit([&] { narrow = population_digest(fed, population, model); })
      .get();
  EXPECT_EQ(wide, narrow);
  return wide;
}

TEST(KernelPins, PopulationEvaluateMlpIsPinned) {
  for_each_backend([] {
    EXPECT_PIN(population_digest_two_widths(/*use_cnn=*/false),
               (PathPins{0xe75506d4a7744206ULL, 0xe9f46e3d2a409f02ULL,
                         0xe9f46e3d2a409f02ULL}));
  });
}

TEST(KernelPins, PopulationEvaluateLenetIsPinned) {
  for_each_backend([] {
    EXPECT_PIN(population_digest_two_widths(/*use_cnn=*/true),
               (PathPins{0x4c2ebb59eaa885bfULL, 0xf665c42facfeaabcULL,
                         0xf665c42facfeaabcULL}));
  });
}

/// Results must not depend on how the evaluator blocks the chunks: at
/// every lane count, from the pool and inline, each set (plus an empty one)
/// scores as the oracle scores it alone, and the blocking really changes.
TEST(KernelPins, BlockedEvaluatorMatchesOracleAtEveryBlockSize) {
  const auto fed = pin_federation();
  const data::Dataset empty(fed.clients[0].test.sample_shape(),
                            fed.num_classes);
  std::vector<const data::Dataset*> sets{&empty};
  for (const auto& client : fed.clients) sets.push_back(&client.test);
  for_each_backend([&] {
    for (bool use_cnn : {false, true}) {
      const auto model = core::default_model_factory(fed, 99, use_cnn)();
      ASSERT_GT(model.min_invariant_rows(), 1u);
      std::vector<fl::EvalResult> want(sets.size());
      for (std::size_t s = 1; s < sets.size(); ++s) {
        want[s] = oracle_evaluate(model, *sets[s]);
      }
      std::size_t fewest = sets.size(), most = 0;
      for (std::size_t lanes : {1, 2, 3, 8, 1000}) {
        const fl::BlockedEvaluator evaluator(sets, lanes);
        fewest = std::min(fewest, evaluator.blocks());
        most = std::max(most, evaluator.blocks());
        std::vector<fl::EvalResult> inline_got;
        ThreadPool::global()
            .submit([&] { inline_got = evaluator.evaluate(model); })
            .get();
        for (const auto& got : {evaluator.evaluate(model), inline_got}) {
          ASSERT_EQ(got.size(), want.size());
          for (std::size_t s = 0; s < want.size(); ++s) {
            SCOPED_TRACE("cnn " + std::to_string(use_cnn) + " lanes " +
                         std::to_string(lanes) + " set " + std::to_string(s));
            EXPECT_EQ(got[s].loss, want[s].loss);
            EXPECT_EQ(got[s].accuracy, want[s].accuracy);
            EXPECT_EQ(got[s].samples, want[s].samples);
          }
        }
      }
      EXPECT_LT(fewest, most);
    }
  });
}

}  // namespace
}  // namespace haccs
