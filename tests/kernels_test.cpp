// Equivalence tests for the blocked/packed compute kernels.
//
// The optimized GEMM and im2col conv paths reassociate float accumulation,
// so agreement with the retained reference kernels is tolerance-bounded:
// relative error per element scaled by the reduction depth. Shapes cover
// primes, 1, and micro-kernel edge cases (tiles narrower than MR x NR,
// depths straddling KC). HACCS_KERNEL_TEST_ITERS scales the randomized
// iteration count (default 25).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <limits>
#include <vector>

#include "src/common/rng.hpp"
#include "src/data/synthetic.hpp"
#include "src/fl/client.hpp"
#include "src/nn/model.hpp"
#include "src/tensor/ops.hpp"
#include "tests/helpers.hpp"

namespace haccs {
namespace {

std::size_t test_iters() {
  if (const char* env = std::getenv("HACCS_KERNEL_TEST_ITERS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 25;
}

Tensor random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Tensor t({rows, cols});
  for (float& v : t.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

/// abs tolerance scaled by the reduction depth: each output element is a
/// k-term dot product, so accumulated rounding grows with k.
void expect_close(const Tensor& got, const Tensor& want, std::size_t depth) {
  ASSERT_EQ(got.size(), want.size());
  const float tol =
      1e-5f * static_cast<float>(depth) + 1e-5f;
  const float* g = got.raw();
  const float* w = want.raw();
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float scale = std::max(1.0f, std::fabs(w[i]));
    ASSERT_NEAR(g[i], w[i], tol * scale) << "element " << i;
  }
}

// Odd, prime, and blocking-boundary extents: 1 and primes exercise the
// packed edge tiles, 257 straddles KC=256, 128/64 hit the fast paths.
constexpr std::size_t kShapes[] = {1, 2, 3, 5, 7, 13, 17, 31, 64, 97, 128, 257};

std::size_t pick_shape(Rng& rng) {
  return kShapes[static_cast<std::size_t>(
      rng.uniform(0.0, static_cast<double>(std::size(kShapes)) - 1e-9))];
}

TEST(Kernels, DefaultBackendIsOptimized) {
  EXPECT_EQ(ops::kernel_backend(), ops::KernelBackend::kOptimized);
  ops::set_kernel_backend(ops::KernelBackend::kReference);
  EXPECT_EQ(ops::kernel_backend(), ops::KernelBackend::kReference);
  ops::set_kernel_backend(ops::KernelBackend::kOptimized);
}

TEST(Kernels, GemmMatchesReferenceOnRandomShapes) {
  Rng rng(101);
  for (std::size_t it = 0; it < test_iters(); ++it) {
    const std::size_t m = pick_shape(rng), k = pick_shape(rng),
                      n = pick_shape(rng);
    const bool accumulate = rng.bernoulli(0.5);
    const Tensor a = random_matrix(m, k, rng);
    const Tensor b = random_matrix(k, n, rng);
    Tensor c = random_matrix(m, n, rng);
    Tensor c_ref = c;
    ops::gemm(a, b, c, accumulate);
    ops::gemm_reference(a, b, c_ref, accumulate);
    SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
                 " n=" + std::to_string(n));
    expect_close(c, c_ref, k);
  }
}

TEST(Kernels, GemmBtMatchesReferenceOnRandomShapes) {
  Rng rng(102);
  for (std::size_t it = 0; it < test_iters(); ++it) {
    const std::size_t m = pick_shape(rng), k = pick_shape(rng),
                      n = pick_shape(rng);
    const bool accumulate = rng.bernoulli(0.5);
    const Tensor a = random_matrix(m, k, rng);
    const Tensor b = random_matrix(n, k, rng);
    Tensor c = random_matrix(m, n, rng);
    Tensor c_ref = c;
    ops::gemm_bt(a, b, c, accumulate);
    ops::gemm_bt_reference(a, b, c_ref, accumulate);
    SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
                 " n=" + std::to_string(n));
    expect_close(c, c_ref, k);
  }
}

TEST(Kernels, GemmAtMatchesReferenceOnRandomShapes) {
  Rng rng(103);
  for (std::size_t it = 0; it < test_iters(); ++it) {
    const std::size_t m = pick_shape(rng), k = pick_shape(rng),
                      n = pick_shape(rng);
    const bool accumulate = rng.bernoulli(0.5);
    const Tensor a = random_matrix(k, m, rng);
    const Tensor b = random_matrix(k, n, rng);
    Tensor c = random_matrix(m, n, rng);
    Tensor c_ref = c;
    ops::gemm_at(a, b, c, accumulate);
    ops::gemm_at_reference(a, b, c_ref, accumulate);
    SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
                 " n=" + std::to_string(n));
    expect_close(c, c_ref, k);
  }
}

TEST(Kernels, ReferenceBackendRoutesDispatchingEntryPoints) {
  // Under kReference the dispatching gemm must agree with gemm_reference
  // bit-for-bit (same code path).
  ops::set_kernel_backend(ops::KernelBackend::kReference);
  Rng rng(104);
  const Tensor a = random_matrix(37, 53, rng);
  const Tensor b = random_matrix(53, 29, rng);
  Tensor c({37, 29}), c_ref({37, 29});
  ops::gemm(a, b, c);
  ops::gemm_reference(a, b, c_ref);
  ops::set_kernel_backend(ops::KernelBackend::kOptimized);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_EQ(c.raw()[i], c_ref.raw()[i]);
  }
}

TEST(Kernels, GemmPropagatesNaNThroughZeroRows) {
  // The seed kernel skipped a_ik == 0 terms, which silently masked NaN/Inf
  // in B. All paths must now propagate them.
  const std::size_t m = 8, k = 70, n = 90;  // above the small-GEMM cutoff
  Tensor a({m, k});  // all zeros
  Tensor b({k, n});
  b.raw()[5 * n + 7] = std::numeric_limits<float>::quiet_NaN();
  Tensor c({m, n});
  ops::gemm(a, b, c);
  EXPECT_TRUE(std::isnan(c[0 * n + 7]));
  EXPECT_TRUE(std::isnan(c[7 * n + 7]));
  EXPECT_EQ(c[0 * n + 6], 0.0f);
  Tensor c_ref({m, n});
  ops::gemm_reference(a, b, c_ref);
  EXPECT_TRUE(std::isnan(c_ref[3 * n + 7]));
}

TEST(Kernels, OverwriteEqualsZeroFillThenAccumulate) {
  // accumulate == false must give C the bits of zero-filling it and
  // accumulating (nn::Dense::zero_grad relies on it), on every path. The
  // tiny operands make every product underflow to -0 under FMA, where a
  // chain from +0 ends at -0 and only +0 + acc restores +0.
  using Op = void (*)(const Tensor&, const Tensor&, Tensor&, bool);
  struct Variant {
    const char* name;
    Op op;
    bool a_transposed, b_transposed;
  };
  const Variant variants[] = {{"gemm", ops::gemm, false, false},
                              {"gemm_bt", ops::gemm_bt, false, true},
                              {"gemm_at", ops::gemm_at, true, false}};
  // (m, n, k): under the small-volume cutoff, blocked with edge tiles, and
  // blocked with a depth that straddles KC.
  const std::size_t shapes[][3] = {{3, 5, 7}, {13, 31, 17}, {7, 19, 257}};
  Rng rng(106);
  for (const auto backend :
       {ops::KernelBackend::kOptimized, ops::KernelBackend::kReference}) {
    ops::set_kernel_backend(backend);
    for (const Variant& v : variants) {
      for (const auto& [m, n, k] : shapes) {
        for (const bool underflow : {false, true}) {
          SCOPED_TRACE(std::string(v.name) + " " + std::to_string(m) + "x" +
                       std::to_string(n) + "x" + std::to_string(k) +
                       (underflow ? " underflow" : "") +
                       (backend == ops::KernelBackend::kReference
                            ? " reference"
                            : ""));
          Tensor a = v.a_transposed ? random_matrix(k, m, rng)
                                    : random_matrix(m, k, rng);
          Tensor b = v.b_transposed ? random_matrix(n, k, rng)
                                    : random_matrix(k, n, rng);
          if (underflow) {
            a.fill(1e-30f);
            b.fill(-1e-30f);
          }
          Tensor overwritten({m, n}), accumulated({m, n});
          overwritten.fill(7.0f);
          v.op(a, b, overwritten, /*accumulate=*/false);
          v.op(a, b, accumulated, /*accumulate=*/true);
          for (std::size_t i = 0; i < overwritten.size(); ++i) {
            ASSERT_EQ(std::bit_cast<std::uint32_t>(overwritten[i]),
                      std::bit_cast<std::uint32_t>(accumulated[i]))
                << "element " << i;
          }
          if (underflow) {
            EXPECT_EQ(std::bit_cast<std::uint32_t>(overwritten[0]), 0u);
          }
        }
      }
    }
  }
  ops::set_kernel_backend(ops::KernelBackend::kOptimized);
}

ops::Conv2dShape conv_shape(std::size_t batch, std::size_t cin, std::size_t h,
                            std::size_t w, std::size_t cout, std::size_t kernel,
                            std::size_t stride, std::size_t padding) {
  return ops::Conv2dShape{batch, cin, h, w, cout, kernel, stride, padding};
}

void fill_random(Tensor& t, Rng& rng) {
  for (float& v : t.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
}

TEST(Kernels, ConvBackwardInputIm2colMatchesDirect) {
  Rng rng(105);
  // Odd spatial sizes, padding, and stride 2 exercise the col2im edges.
  const ops::Conv2dShape shapes[] = {
      conv_shape(2, 3, 9, 11, 4, 3, 1, 1),
      conv_shape(1, 1, 7, 7, 2, 5, 2, 2),
      conv_shape(3, 2, 13, 13, 5, 3, 2, 0),
  };
  for (const auto& s : shapes) {
    Tensor grad_output({s.batch, s.out_channels, s.out_h(), s.out_w()});
    Tensor weight({s.out_channels, s.in_channels, s.kernel, s.kernel});
    fill_random(grad_output, rng);
    fill_random(weight, rng);
    Tensor gi({s.batch, s.in_channels, s.in_h, s.in_w});
    Tensor gi_ref = gi;
    ops::conv2d_backward_input_im2col(s, grad_output, weight, gi);
    ops::conv2d_backward_input_direct(s, grad_output, weight, gi_ref);
    expect_close(gi, gi_ref, s.out_channels * s.kernel * s.kernel);
  }
}

TEST(Kernels, ConvBackwardParamsIm2colMatchesDirect) {
  Rng rng(106);
  const ops::Conv2dShape shapes[] = {
      conv_shape(2, 3, 9, 11, 4, 3, 1, 1),
      conv_shape(1, 1, 7, 7, 2, 5, 2, 2),
      conv_shape(3, 2, 13, 13, 5, 3, 2, 0),
  };
  for (const auto& s : shapes) {
    Tensor input({s.batch, s.in_channels, s.in_h, s.in_w});
    Tensor grad_output({s.batch, s.out_channels, s.out_h(), s.out_w()});
    fill_random(input, rng);
    fill_random(grad_output, rng);
    Tensor gw({s.out_channels, s.in_channels, s.kernel, s.kernel});
    Tensor gb({s.out_channels});
    // Accumulation contract: start from nonzero grads on both paths.
    fill_random(gw, rng);
    fill_random(gb, rng);
    Tensor gw_ref = gw;
    Tensor gb_ref = gb;
    ops::conv2d_backward_params_im2col(s, input, grad_output, gw, gb);
    ops::conv2d_backward_params_direct(s, input, grad_output, gw_ref, gb_ref);
    expect_close(gw, gw_ref, s.batch * s.out_h() * s.out_w());
    expect_close(gb, gb_ref, s.batch * s.out_h() * s.out_w());
  }
}

TEST(Kernels, MaxpoolInferMatchesTraining) {
  Rng rng(107);
  const ops::Pool2dShape s{3, 4, 8, 10, 2};
  Tensor input({s.batch, s.channels, s.in_h, s.in_w});
  fill_random(input, rng);
  Tensor out_train({s.batch, s.channels, s.out_h(), s.out_w()});
  Tensor out_infer = out_train;
  std::vector<std::size_t> argmax;
  ops::maxpool_forward(s, input, out_train, argmax);
  ops::maxpool_forward_infer(s, input, out_infer);
  for (std::size_t i = 0; i < out_train.size(); ++i) {
    ASSERT_EQ(out_train.raw()[i], out_infer.raw()[i]);
  }
}

TEST(Kernels, SequentialInferMatchesEvalModeForward) {
  Rng rng(108);
  nn::Sequential model = nn::make_cnn_mini(1, 12, 12, 10, rng);
  Tensor input({4, 1, 12, 12});
  fill_random(input, rng);
  const Tensor fwd = model.forward(input);
  const Tensor inf = infer_copy(model, input);
  ASSERT_EQ(fwd.size(), inf.size());
  for (std::size_t i = 0; i < fwd.size(); ++i) {
    ASSERT_EQ(fwd.raw()[i], inf.raw()[i]) << "element " << i;
  }
}

/// Pinned training-round check: the same local training run under the
/// reference and optimized backends must land at losses within a small
/// tolerance — the end-to-end statement that kernel reassociation does not
/// change what the federation learns.
TEST(Kernels, TrainingRoundLossMatchesReferenceWithinTolerance) {
  auto make_data = [] {
    data::SyntheticImageConfig cfg = data::SyntheticImageConfig::femnist_like(6);
    cfg.height = 12;
    cfg.width = 12;
    data::SyntheticImageGenerator gen(cfg);
    data::Dataset set({1, 12, 12}, 6);
    Rng rng(55);
    for (std::int64_t label = 0; label < 6; ++label) {
      gen.fill(set, label, 16, rng);
    }
    return set;
  };
  auto run_with = [&](ops::KernelBackend backend) {
    ops::set_kernel_backend(backend);
    Rng model_rng(77);
    nn::Sequential model = nn::make_cnn_mini(1, 12, 12, 6, model_rng);
    fl::LocalTrainConfig cfg;
    cfg.epochs = 3;
    cfg.batch_size = 16;
    cfg.sgd.learning_rate = 0.05;
    Rng train_rng(88);
    const auto result = fl::train_local(model, make_data(), cfg, train_rng);
    ops::set_kernel_backend(ops::KernelBackend::kOptimized);
    return result;
  };
  const auto ref = run_with(ops::KernelBackend::kReference);
  const auto opt = run_with(ops::KernelBackend::kOptimized);
  EXPECT_LT(opt.average_loss, ref.average_loss * 1.001 + 1e-3);
  EXPECT_GT(opt.average_loss, ref.average_loss * 0.999 - 1e-3);
  EXPECT_NEAR(opt.final_loss, ref.final_loss,
              std::max(1e-3, ref.final_loss * 1e-2));
  EXPECT_EQ(opt.batches, ref.batches);
}

}  // namespace
}  // namespace haccs
