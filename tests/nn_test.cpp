// Tests for src/nn: layer forward/backward correctness (finite-difference
// gradient checks through the full model), loss properties, parameter
// (de)serialization, optimizer behavior, and end-to-end learnability.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/common/rng.hpp"
#include "src/nn/layer.hpp"
#include "src/nn/loss.hpp"
#include "src/nn/model.hpp"
#include "src/nn/optimizer.hpp"
#include "tests/helpers.hpp"

namespace haccs::nn {
namespace {

TEST(Dense, ForwardComputesAffineMap) {
  Rng rng(1);
  Dense layer(2, 2, rng);
  // Overwrite parameters with known values: W = [[1,2],[3,4]], b = [10, 20].
  auto params = layer.parameters();
  params[0]->data()[0] = 1;
  params[0]->data()[1] = 2;
  params[0]->data()[2] = 3;
  params[0]->data()[3] = 4;
  params[1]->data()[0] = 10;
  params[1]->data()[1] = 20;

  Tensor x({1, 2}, {1.0f, 1.0f});
  const Tensor y = layer.forward(x);
  EXPECT_FLOAT_EQ(y[0], 13.0f);  // 1*1 + 2*1 + 10
  EXPECT_FLOAT_EQ(y[1], 27.0f);  // 3*1 + 4*1 + 20
}

TEST(Dense, RejectsWrongInputWidth) {
  Rng rng(1);
  Dense layer(3, 2, rng);
  Tensor x({1, 4});
  EXPECT_THROW(layer.forward(x), std::invalid_argument);
}

TEST(ReLULayer, ZeroesNegativeAndPassesPositive) {
  ReLU relu;
  Tensor x({1, 4}, {-1.0f, 0.0f, 2.0f, -3.0f});
  const Tensor y = relu.forward(x);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);

  Tensor g({1, 4}, {1, 1, 1, 1});
  const Tensor gx = relu.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);  // blocked at negative input
  EXPECT_FLOAT_EQ(gx[2], 1.0f);
}

TEST(FlattenLayer, RoundTripsShape) {
  Flatten flatten;
  Tensor x({2, 3, 4, 5});
  const Tensor y = flatten.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 60}));
  const Tensor back = flatten.backward(y);
  EXPECT_EQ(back.shape(), x.shape());
}

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogC) {
  Tensor logits({1, 10});
  const std::vector<std::int64_t> labels = {3};
  const auto result = softmax_cross_entropy(logits, labels);
  EXPECT_NEAR(result.loss, std::log(10.0), 1e-5);
}

TEST(SoftmaxCrossEntropy, TracksCorrectPredictions) {
  Tensor logits({2, 3}, {5, 0, 0, 0, 0, 5});
  const std::vector<std::int64_t> labels = {0, 1};
  const auto result = softmax_cross_entropy(logits, labels);
  EXPECT_EQ(result.correct, 1u);  // first right, second wrong

  // Large logits must not overflow: the row is shifted by its maximum.
  const std::vector<float> large = {-1, 0, 100};
  const RowLoss row = softmax_cross_entropy_row(large, 2);
  EXPECT_TRUE(std::isfinite(row.loss));
  EXPECT_NEAR(row.loss, 0.0, 1e-6);
  EXPECT_TRUE(row.correct);  // the argmax is 2
  EXPECT_GE(row.exp_total, 1.0);
}

TEST(SoftmaxCrossEntropy, RejectsOutOfRangeLabel) {
  Tensor logits({1, 3});
  const std::vector<std::int64_t> bad = {3};
  EXPECT_THROW(softmax_cross_entropy(logits, bad), std::invalid_argument);
}

TEST(SoftmaxCrossEntropy, GradientMatchesFiniteDifferences) {
  Rng rng(11);
  Tensor logits({3, 5});
  for (auto& v : logits.data()) v = static_cast<float>(rng.normal());
  const std::vector<std::int64_t> labels = {0, 2, 4};
  const auto result = softmax_cross_entropy(logits, labels);

  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    Tensor plus = logits, minus = logits;
    plus[i] += eps;
    minus[i] -= eps;
    const double fd = (softmax_cross_entropy(plus, labels).loss -
                       softmax_cross_entropy(minus, labels).loss) /
                      (2.0 * eps);
    EXPECT_NEAR(result.grad_logits[i], fd, 1e-3);
  }
}

// Whole-model gradient check: MLP and CNN through the loss.
void check_model_gradients(Sequential& model, std::size_t input_size,
                           const std::vector<std::size_t>& input_shape,
                           std::size_t classes) {
  Rng rng(13);
  Tensor x(input_shape);
  for (auto& v : x.data()) v = static_cast<float>(rng.normal(0, 0.5));
  std::vector<std::int64_t> labels(input_shape[0]);
  for (auto& l : labels) {
    l = static_cast<std::int64_t>(rng.uniform_index(classes));
  }
  (void)input_size;

  model.zero_grad();
  const Tensor logits = model.forward(x);
  const auto loss = softmax_cross_entropy(logits, labels);
  model.backward(loss.grad_logits);
  const auto analytic = flat_gradients(model);
  const auto params = model.get_parameters();

  auto loss_at = [&](const std::vector<float>& p) {
    model.set_parameters(p);
    const Tensor out = model.forward(x);
    return softmax_cross_entropy(out, labels).loss;
  };

  const float eps = 1e-2f;
  std::size_t checked = 0;
  for (std::size_t i = 0; i < params.size() && checked < 40;
       i += std::max<std::size_t>(1, params.size() / 40), ++checked) {
    auto plus = params, minus = params;
    plus[i] += eps;
    minus[i] -= eps;
    const double fd = (loss_at(plus) - loss_at(minus)) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], fd, 2e-2) << "param " << i;
  }
  model.set_parameters(params);
}

TEST(Sequential, MlpGradientsMatchFiniteDifferences) {
  Rng rng(17);
  Sequential model = make_mlp(12, {8}, 4, rng);
  check_model_gradients(model, 12, {5, 12}, 4);
}

TEST(Sequential, CnnGradientsMatchFiniteDifferences) {
  Rng rng(19);
  Sequential model = make_cnn_mini(1, 8, 8, 3, rng);
  check_model_gradients(model, 64, {4, 1, 8, 8}, 3);
}

TEST(Sequential, ParameterRoundTrip) {
  Rng rng(23);
  Sequential model = make_mlp(6, {5}, 3, rng);
  const auto original = model.get_parameters();
  EXPECT_EQ(original.size(), model.parameter_count());

  auto modified = original;
  for (auto& v : modified) v += 1.0f;
  model.set_parameters(modified);
  EXPECT_EQ(model.get_parameters(), modified);

  model.set_parameters(original);
  EXPECT_EQ(model.get_parameters(), original);
}

TEST(Sequential, SetParametersSizeChecked) {
  Rng rng(29);
  Sequential model = make_mlp(4, {}, 2, rng);
  std::vector<float> wrong(model.parameter_count() + 1, 0.0f);
  EXPECT_THROW(model.set_parameters(wrong), std::invalid_argument);
  std::vector<float> short_vec(model.parameter_count() - 1, 0.0f);
  EXPECT_THROW(model.set_parameters(short_vec), std::invalid_argument);
}

TEST(Sequential, SameSeedSameInitialization) {
  Rng rng1(31), rng2(31);
  Sequential m1 = make_mlp(10, {7}, 3, rng1);
  Sequential m2 = make_mlp(10, {7}, 3, rng2);
  EXPECT_EQ(m1.get_parameters(), m2.get_parameters());
}

TEST(Sequential, InPlaceInferReusesItsBuffers) {
  Rng rng(12);
  const Sequential model = make_lenet(1, 12, 12, 10, rng);
  Tensor input({5, 1, 12, 12});
  for (float& v : input.data()) v = static_cast<float>(rng.uniform(-1, 1));
  const Tensor want = infer_copy(model, input);

  Tensor x = input, spare;
  model.infer(x, spare);
  ASSERT_EQ(x.shape(), want.shape());
  for (std::size_t i = 0; i < x.size(); ++i) ASSERT_EQ(x[i], want[i]);

  // Once both buffers have held the largest activation, another batch of
  // the same shape runs without reallocating either of them.
  x = input;
  model.infer(x, spare);
  const float* buffers[] = {x.raw(), spare.raw()};
  x.resize(input.shape());
  std::copy(input.data().begin(), input.data().end(), x.data().begin());
  model.infer(x, spare);
  EXPECT_TRUE((x.raw() == buffers[0] && spare.raw() == buffers[1]) ||
              (x.raw() == buffers[1] && spare.raw() == buffers[0]));
  for (std::size_t i = 0; i < x.size(); ++i) ASSERT_EQ(x[i], want[i]);
}

TEST(Sequential, MinInvariantRowsFollowsTheSmallGemmCutoff) {
  Rng rng(13);
  // Dense(64 -> 10): 640 * m multiply-adds stay under the 4096 cutoff up
  // to m = 6, so batches of 7 or more rows share every row's bits.
  EXPECT_EQ(make_mlp(256, {64}, 10, rng).min_invariant_rows(), 7u);
  EXPECT_EQ(make_mlp(256, {}, 64, rng).min_invariant_rows(), 1u);
}

TEST(Lenet, BuildsAndRuns28x28) {
  Rng rng(37);
  Sequential model = make_lenet(1, 28, 28, 10, rng);
  Tensor x({2, 1, 28, 28});
  const Tensor y = model.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 10}));
}

TEST(Lenet, RejectsTinyInputs) {
  Rng rng(1);
  EXPECT_THROW(make_lenet(1, 3, 3, 10, rng), std::invalid_argument);
}

TEST(SgdOptimizer, SingleStepAppliesLearningRate) {
  Rng rng(41);
  Sequential model;
  model.add(std::make_unique<Dense>(1, 1, rng));
  auto params = model.layer(0).parameters();
  params[0]->data()[0] = 1.0f;  // w
  params[1]->data()[0] = 0.0f;  // b
  auto grads = model.layer(0).gradients();
  grads[0]->data()[0] = 2.0f;
  grads[1]->data()[0] = 1.0f;

  SgdOptimizer opt({.learning_rate = 0.1});
  opt.step(model);
  EXPECT_NEAR(params[0]->data()[0], 0.8f, 1e-6);
  EXPECT_NEAR(params[1]->data()[0], -0.1f, 1e-6);
}

TEST(SgdOptimizer, MomentumAccumulates) {
  Rng rng(43);
  Sequential model;
  model.add(std::make_unique<Dense>(1, 1, rng));
  model.layer(0).parameters()[0]->data()[0] = 0.0f;
  model.layer(0).parameters()[1]->data()[0] = 0.0f;

  SgdOptimizer opt({.learning_rate = 1.0, .momentum = 0.5});
  // Constant gradient of 1: updates are 1, 1.5, 1.75, ...
  model.layer(0).gradients()[0]->data()[0] = 1.0f;
  opt.step(model);
  const float after_one = model.layer(0).parameters()[0]->data()[0];
  EXPECT_NEAR(after_one, -1.0f, 1e-6);
  model.layer(0).gradients()[0]->data()[0] = 1.0f;
  opt.step(model);
  EXPECT_NEAR(model.layer(0).parameters()[0]->data()[0], -2.5f, 1e-6);
}

TEST(SgdOptimizer, RejectsBadConfig) {
  EXPECT_THROW(SgdOptimizer({.learning_rate = 0.0}), std::invalid_argument);
  EXPECT_THROW(SgdOptimizer({.learning_rate = 0.1, .momentum = 1.0}),
               std::invalid_argument);
  EXPECT_THROW(
      SgdOptimizer({.learning_rate = 0.1, .momentum = 0.0, .weight_decay = -1.0}),
      std::invalid_argument);
}

TEST(SgdOptimizer, WeightDecayShrinksWeights) {
  Rng rng(47);
  Sequential model;
  model.add(std::make_unique<Dense>(1, 1, rng));
  model.layer(0).parameters()[0]->data()[0] = 10.0f;
  model.zero_grad();
  SgdOptimizer opt(
      {.learning_rate = 0.1, .momentum = 0.0, .weight_decay = 0.5});
  opt.step(model);
  // w <- w - lr * wd * w = 10 - 0.1*0.5*10 = 9.5
  EXPECT_NEAR(model.layer(0).parameters()[0]->data()[0], 9.5f, 1e-5);
}

// End-to-end learnability: a small MLP separates two Gaussian blobs.
TEST(Training, LearnsLinearlySeparableBlobs) {
  Rng rng(53);
  Sequential model = make_mlp(2, {16}, 2, rng);
  SgdOptimizer opt({.learning_rate = 0.1});

  Rng data_rng(54);
  const std::size_t n = 64;
  Tensor x({n, 2});
  std::vector<std::int64_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool positive = i % 2 == 0;
    labels[i] = positive ? 1 : 0;
    const double cx = positive ? 1.5 : -1.5;
    x[2 * i] = static_cast<float>(data_rng.normal(cx, 0.5));
    x[2 * i + 1] = static_cast<float>(data_rng.normal(-cx, 0.5));
  }

  double first_loss = 0.0, last_loss = 0.0;
  for (int step = 0; step < 150; ++step) {
    model.zero_grad();
    const Tensor logits = model.forward(x);
    const auto loss = softmax_cross_entropy(logits, labels);
    model.backward(loss.grad_logits);
    opt.step(model);
    if (step == 0) first_loss = loss.loss;
    last_loss = loss.loss;
  }
  EXPECT_LT(last_loss, first_loss * 0.2);

  const Tensor logits = model.forward(x);
  const auto final = softmax_cross_entropy(logits, labels);
  EXPECT_GE(static_cast<double>(final.correct) / n, 0.95);
}

}  // namespace
}  // namespace haccs::nn
