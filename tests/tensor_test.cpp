// Tests for src/tensor: tensor container semantics and the GEMM /
// convolution / pooling kernels, including numerical checks of the
// convolution backward passes against finite differences.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/tensor/ops.hpp"
#include "src/tensor/tensor.hpp"

namespace haccs {
namespace {

TEST(Tensor, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6u);
  for (float v : t.data()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, RejectsZeroExtent) {
  EXPECT_THROW(Tensor({2, 0}), std::invalid_argument);
}

TEST(Tensor, ValueConstructorChecksSize) {
  EXPECT_THROW(Tensor({2, 2}, {1.0f, 2.0f}), std::invalid_argument);
  Tensor ok({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(ok[3], 4.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.shape(), (std::vector<std::size_t>{3, 2}));
  EXPECT_EQ(r[5], 6.0f);
  EXPECT_THROW(t.reshaped({4, 2}), std::invalid_argument);
}

// ---- GEMM ----

TEST(Gemm, MatchesHandComputedProduct) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c({2, 2});
  ops::gemm(a, b, c);
  EXPECT_FLOAT_EQ(c[0], 58.0f);
  EXPECT_FLOAT_EQ(c[1], 64.0f);
  EXPECT_FLOAT_EQ(c[2], 139.0f);
  EXPECT_FLOAT_EQ(c[3], 154.0f);
}

TEST(Gemm, AccumulateAddsToExisting) {
  Tensor a({1, 1}, {2});
  Tensor b({1, 1}, {3});
  Tensor c({1, 1}, {10});
  ops::gemm(a, b, c, /*accumulate=*/true);
  EXPECT_FLOAT_EQ(c[0], 16.0f);
}

TEST(Gemm, ShapeMismatchThrows) {
  Tensor a({2, 3}), b({2, 2}), c({2, 2});
  EXPECT_THROW(ops::gemm(a, b, c), std::invalid_argument);
}

// gemm_bt and gemm_at agree with explicit transposition through gemm.
TEST(Gemm, TransposedVariantsAgree) {
  Rng rng(3);
  const std::size_t m = 5, k = 7, n = 4;
  Tensor a({m, k}), b_t({n, k}), a_t({k, m}), b({k, n});
  for (auto& v : a.data()) v = static_cast<float>(rng.normal());
  for (auto& v : b.data()) v = static_cast<float>(rng.normal());
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < m; ++j) a_t[i * m + j] = a[j * k + i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) b_t[i * k + j] = b[j * n + i];
  }
  Tensor reference({m, n}), via_bt({m, n}), via_at({m, n});
  ops::gemm(a, b, reference);
  ops::gemm_bt(a, b_t, via_bt);
  ops::gemm_at(a_t, b, via_at);
  for (std::size_t i = 0; i < m * n; ++i) {
    EXPECT_NEAR(via_bt[i], reference[i], 1e-4f);
    EXPECT_NEAR(via_at[i], reference[i], 1e-4f);
  }
}

// ---- Convolution ----

ops::Conv2dShape small_conv() {
  return ops::Conv2dShape{/*batch=*/2, /*in_channels=*/2, /*in_h=*/5,
                          /*in_w=*/5, /*out_channels=*/3, /*kernel=*/3,
                          /*stride=*/1, /*padding=*/1};
}

TEST(Conv2d, OutputShape) {
  const auto s = small_conv();
  EXPECT_EQ(s.out_h(), 5u);
  EXPECT_EQ(s.out_w(), 5u);
  const ops::Conv2dShape strided{1, 1, 8, 8, 1, 3, 2, 0};
  EXPECT_EQ(strided.out_h(), 3u);
}

TEST(Conv2d, IdentityKernelCopiesInput) {
  // 1x1 kernel with weight 1 and zero bias is the identity.
  const ops::Conv2dShape s{1, 1, 4, 4, 1, 1, 1, 0};
  Tensor input({1, 1, 4, 4});
  Rng rng(5);
  for (auto& v : input.data()) v = static_cast<float>(rng.normal());
  Tensor weight({1, 1, 1, 1}, {1.0f});
  Tensor bias({1});
  Tensor output({1, 1, 4, 4});
  ops::conv2d_forward(s, input, weight, bias, output);
  for (std::size_t i = 0; i < input.size(); ++i) {
    EXPECT_FLOAT_EQ(output[i], input[i]);
  }
}

TEST(Conv2d, BiasIsAdded) {
  const ops::Conv2dShape s{1, 1, 3, 3, 1, 1, 1, 0};
  Tensor input({1, 1, 3, 3});
  Tensor weight({1, 1, 1, 1}, {0.0f});
  Tensor bias({1}, {2.5f});
  Tensor output({1, 1, 3, 3});
  ops::conv2d_forward(s, input, weight, bias, output);
  for (float v : output.data()) EXPECT_FLOAT_EQ(v, 2.5f);
}

// Finite-difference check of conv2d backward passes.
TEST(Conv2d, BackwardMatchesFiniteDifferences) {
  const auto s = small_conv();
  Rng rng(7);
  Tensor input({s.batch, s.in_channels, s.in_h, s.in_w});
  Tensor weight({s.out_channels, s.in_channels, s.kernel, s.kernel});
  Tensor bias({s.out_channels});
  for (auto& v : input.data()) v = static_cast<float>(rng.normal(0, 0.5));
  for (auto& v : weight.data()) v = static_cast<float>(rng.normal(0, 0.5));
  for (auto& v : bias.data()) v = static_cast<float>(rng.normal(0, 0.5));

  const std::size_t out_size = s.batch * s.out_channels * s.out_h() * s.out_w();
  Tensor grad_out({s.batch, s.out_channels, s.out_h(), s.out_w()});
  for (auto& v : grad_out.data()) v = static_cast<float>(rng.normal(0, 0.5));

  // Scalar objective: L = sum(output * grad_out).
  auto objective = [&](const Tensor& in, const Tensor& w, const Tensor& b) {
    Tensor out({s.batch, s.out_channels, s.out_h(), s.out_w()});
    ops::conv2d_forward(s, in, w, b, out);
    double acc = 0.0;
    for (std::size_t i = 0; i < out_size; ++i) {
      acc += static_cast<double>(out[i]) * grad_out[i];
    }
    return acc;
  };

  Tensor grad_input({s.batch, s.in_channels, s.in_h, s.in_w});
  Tensor grad_weight({s.out_channels, s.in_channels, s.kernel, s.kernel});
  Tensor grad_bias({s.out_channels});
  ops::conv2d_backward_input(s, grad_out, weight, grad_input);
  ops::conv2d_backward_params(s, input, grad_out, grad_weight, grad_bias);

  const float eps = 1e-2f;
  // Check a sample of coordinates in each gradient tensor.
  for (std::size_t i = 0; i < grad_input.size(); i += 17) {
    Tensor plus = input, minus = input;
    plus[i] += eps;
    minus[i] -= eps;
    const double fd =
        (objective(plus, weight, bias) - objective(minus, weight, bias)) /
        (2.0 * eps);
    EXPECT_NEAR(grad_input[i], fd, 5e-2) << "grad_input[" << i << "]";
  }
  for (std::size_t i = 0; i < grad_weight.size(); i += 7) {
    Tensor plus = weight, minus = weight;
    plus[i] += eps;
    minus[i] -= eps;
    const double fd =
        (objective(input, plus, bias) - objective(input, minus, bias)) /
        (2.0 * eps);
    EXPECT_NEAR(grad_weight[i], fd, 5e-2) << "grad_weight[" << i << "]";
  }
  for (std::size_t i = 0; i < grad_bias.size(); ++i) {
    Tensor plus = bias, minus = bias;
    plus[i] += eps;
    minus[i] -= eps;
    const double fd =
        (objective(input, weight, plus) - objective(input, weight, minus)) /
        (2.0 * eps);
    EXPECT_NEAR(grad_bias[i], fd, 5e-2) << "grad_bias[" << i << "]";
  }
}

TEST(Conv2d, Im2colMatchesDirect) {
  // Several shapes spanning both sides of the dispatch threshold.
  const std::vector<ops::Conv2dShape> shapes = {
      {2, 1, 8, 8, 3, 3, 1, 1},    // small
      {3, 3, 16, 16, 8, 5, 1, 2},  // large (im2col territory)
      {1, 2, 10, 10, 4, 3, 2, 0},  // strided, no padding
      {2, 1, 7, 9, 2, 3, 1, 1},    // non-square input
  };
  Rng rng(21);
  for (const auto& s : shapes) {
    Tensor input({s.batch, s.in_channels, s.in_h, s.in_w});
    Tensor weight({s.out_channels, s.in_channels, s.kernel, s.kernel});
    Tensor bias({s.out_channels});
    for (auto& v : input.data()) v = static_cast<float>(rng.normal());
    for (auto& v : weight.data()) v = static_cast<float>(rng.normal());
    for (auto& v : bias.data()) v = static_cast<float>(rng.normal());
    Tensor direct({s.batch, s.out_channels, s.out_h(), s.out_w()});
    Tensor gemm_out({s.batch, s.out_channels, s.out_h(), s.out_w()});
    ops::conv2d_forward_direct(s, input, weight, bias, direct);
    ops::conv2d_forward_im2col(s, input, weight, bias, gemm_out);
    for (std::size_t i = 0; i < direct.size(); ++i) {
      ASSERT_NEAR(direct[i], gemm_out[i], 1e-4f)
          << "shape(" << s.in_channels << "," << s.in_h << ") idx " << i;
    }
  }
}

TEST(Conv2d, Im2colPatchLayout) {
  // 1x1 "image" of 2 channels under a 1x1 kernel: columns == pixels.
  const ops::Conv2dShape s{1, 2, 2, 2, 1, 1, 1, 0};
  const std::vector<float> sample = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<float> columns(2 * 4);
  ops::im2col(s, sample.data(), columns.data());
  EXPECT_EQ(columns, sample);  // identity unroll for 1x1 kernels
}

// ---- Max pooling ----

TEST(MaxPool, SelectsWindowMaxima) {
  const ops::Pool2dShape s{1, 1, 4, 4, 2};
  Tensor input({1, 1, 4, 4}, {1, 2, 3, 4,   //
                              5, 6, 7, 8,   //
                              9, 10, 11, 12,  //
                              13, 14, 15, 16});
  Tensor output({1, 1, 2, 2});
  std::vector<std::size_t> argmax;
  ops::maxpool_forward(s, input, output, argmax);
  EXPECT_FLOAT_EQ(output[0], 6.0f);
  EXPECT_FLOAT_EQ(output[1], 8.0f);
  EXPECT_FLOAT_EQ(output[2], 14.0f);
  EXPECT_FLOAT_EQ(output[3], 16.0f);
}

TEST(MaxPool, BackwardRoutesGradToArgmax) {
  const ops::Pool2dShape s{1, 1, 2, 2, 2};
  Tensor input({1, 1, 2, 2}, {1, 9, 3, 4});
  Tensor output({1, 1, 1, 1});
  std::vector<std::size_t> argmax;
  ops::maxpool_forward(s, input, output, argmax);

  Tensor grad_out({1, 1, 1, 1}, {5.0f});
  Tensor grad_in({1, 1, 2, 2});
  ops::maxpool_backward(s, grad_out, argmax, grad_in);
  EXPECT_FLOAT_EQ(grad_in[1], 5.0f);  // position of the 9
  EXPECT_FLOAT_EQ(grad_in[0], 0.0f);
  EXPECT_FLOAT_EQ(grad_in[2], 0.0f);
  EXPECT_FLOAT_EQ(grad_in[3], 0.0f);
}

}  // namespace
}  // namespace haccs
