#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "nn/layers.hpp"
#include "tensor/gemm.hpp"
#include "test_util.hpp"

namespace ds {
namespace {

using ::ds::testing::fill_random;
using ::ds::testing::grad_check_layer;

constexpr double kTol = 5e-2;  // relative tolerance for fp32 central diffs

// ------------------------ Forward/backward contract -------------------------
//
// Layer::forward/backward/backward_params hold the contract for every layer
// class: backward needs the last forward to be a training one, with x, y and
// dy of that forward's shapes, and it may run any number of times. One row
// per layer class (and per kernel or shortcut variant).

struct ContractCase {
  std::string name;
  std::function<LayerPtr()> make;
  Shape input;
  ConvAlgo algo = ConvAlgo::kAuto;  // the thread knob while the case runs
};

std::ostream& operator<<(std::ostream& os, const ContractCase& c) {
  return os << c.name;
}

// `s` with its batch dimension replaced.
Shape with_batch(const Shape& s, std::size_t batch) {
  std::vector<std::size_t> dims = s.dims();
  dims[0] = batch;
  return Shape(dims);
}

class LayerContract : public ::testing::TestWithParam<ContractCase> {
 protected:
  void SetUp() override {
    kernel_config().conv_algo = GetParam().algo;
    layer = GetParam().make();
    params.resize(layer->param_count());
    grads.assign(layer->param_count(), 0.0f);
    layer->bind(params, grads);
    Rng rng(17);
    layer->init_params(rng);
    x = Tensor(GetParam().input);
    fill_random(x, rng);
    y = Tensor(layer->output_shape(x.shape()));
    dy = Tensor(y.shape());
    fill_random(dy, rng);
  }

  void TearDown() override { kernel_config().conv_algo = ConvAlgo::kAuto; }

  // Both backward entry points must refuse these arguments.
  void expect_backward_throws(const Tensor& bx, const Tensor& by,
                              const Tensor& bdy) {
    Tensor dx, scratch;
    EXPECT_THROW(layer->backward(bx, by, bdy, dx), Error);
    EXPECT_THROW(layer->backward_params(bx, by, bdy, scratch), Error);
  }

  LayerPtr layer;
  std::vector<float> params, grads;
  Tensor x, y, dy;
};

TEST_P(LayerContract, TrainingForwardThenBackwardSucceeds) {
  layer->forward(x, y, /*train=*/true);
  Tensor dx;
  ASSERT_NO_THROW(layer->backward(x, y, dy, dx));
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST_P(LayerContract, BackwardWithoutTrainingForwardThrows) {
  expect_backward_throws(x, y, dy);  // no forward at all
  layer->forward(x, y, /*train=*/false);
  expect_backward_throws(x, y, dy);  // only an inference forward
  layer->forward(x, y, /*train=*/true);
  layer->forward(x, y, /*train=*/false);
  // The training forward's state is still there and every shape matches,
  // but the last forward kept none of it.
  expect_backward_throws(x, y, dy);
}

TEST_P(LayerContract, MismatchedShapesThrow) {
  layer->forward(x, y, /*train=*/true);
  const std::size_t batch = x.dim(0);
  const Tensor short_dy(with_batch(y.shape(), batch - 1));
  const Tensor flat_dy(Shape{y.numel()});  // same size, other shape
  const Tensor short_y(with_batch(y.shape(), batch - 1));
  const Tensor short_x(with_batch(x.shape(), batch - 1));
  const Tensor long_x(with_batch(x.shape(), batch + 1));
  expect_backward_throws(x, y, short_dy);
  expect_backward_throws(x, y, flat_dy);
  expect_backward_throws(x, short_y, dy);
  expect_backward_throws(short_x, y, dy);
  expect_backward_throws(long_x, y, dy);
  // The refused calls left the training state intact.
  Tensor dx;
  EXPECT_NO_THROW(layer->backward(x, y, dy, dx));
}

TEST_P(LayerContract, RepeatedBackwardsAgreeBitwise) {
  layer->forward(x, y, /*train=*/true);
  const auto run = [&](bool params_only, Tensor& dx) {
    std::fill(grads.begin(), grads.end(), 0.0f);
    if (params_only) {
      layer->backward_params(x, y, dy, dx);
    } else {
      layer->backward(x, y, dy, dx);
    }
    return grads;
  };
  Tensor dx1, dx2, scratch;
  const std::vector<float> g1 = run(false, dx1);
  const std::vector<float> g2 = run(false, dx2);
  const std::vector<float> g3 = run(true, scratch);
  ASSERT_EQ(dx1.shape(), dx2.shape());
  EXPECT_EQ(0, std::memcmp(dx1.data(), dx2.data(),
                           dx1.numel() * sizeof(float)));
  EXPECT_EQ(g1, g2);
  EXPECT_EQ(g1, g3) << "backward_params must accumulate backward's bits";
}

INSTANTIATE_TEST_SUITE_P(
    EveryLayer, LayerContract,
    ::testing::Values(
        ContractCase{"relu", [] { return std::make_unique<ReLU>(); },
                     Shape{2, 3, 4, 4}},
        ContractCase{"tanh", [] { return std::make_unique<Tanh>(); },
                     Shape{2, 10}},
        ContractCase{"sigmoid", [] { return std::make_unique<Sigmoid>(); },
                     Shape{3, 7}},
        ContractCase{"flatten", [] { return std::make_unique<Flatten>(); },
                     Shape{2, 3, 4, 4}},
        ContractCase{"dropout_p0",
                     [] { return std::make_unique<Dropout>(0.0); },
                     Shape{2, 8}},
        ContractCase{"dropout_p05",
                     [] { return std::make_unique<Dropout>(0.5, 9); },
                     Shape{2, 8}},
        ContractCase{"conv_im2col",
                     [] { return std::make_unique<Conv2D>(3, 4, 3, 1, 1); },
                     Shape{2, 3, 6, 6}, ConvAlgo::kIm2col},
        ContractCase{"conv_direct",
                     [] { return std::make_unique<Conv2D>(3, 4, 3, 1, 1); },
                     Shape{2, 3, 6, 6}, ConvAlgo::kDirect},
        ContractCase{"maxpool",
                     [] { return std::make_unique<MaxPool2D>(2, 2); },
                     Shape{2, 3, 4, 4}},
        ContractCase{"avgpool",
                     [] { return std::make_unique<AvgPool2D>(2, 2); },
                     Shape{2, 3, 4, 4}},
        ContractCase{"lrn",
                     [] { return std::make_unique<LocalResponseNorm>(); },
                     Shape{2, 6, 3, 3}},
        ContractCase{"fc",
                     [] { return std::make_unique<FullyConnected>(7, 5); },
                     Shape{3, 7}},
        ContractCase{"residual_identity",
                     [] { return std::make_unique<ResidualBlock>(4, 4, 1); },
                     Shape{2, 4, 6, 6}},
        ContractCase{"residual_projection",
                     [] { return std::make_unique<ResidualBlock>(3, 4, 2); },
                     Shape{2, 3, 6, 6}},
        ContractCase{"inception",
                     [] {
                       return std::make_unique<InceptionBlock>(4, 2, 2, 3, 2,
                                                               3, 2);
                     },
                     Shape{2, 4, 5, 5}}),
    [](const ::testing::TestParamInfo<ContractCase>& info) {
      return info.param.name;
    });

// ----------------------------- Activations ----------------------------------

TEST(ReLULayer, ForwardClampsNegatives) {
  ReLU relu;
  Tensor x({1, 4});
  x[0] = -1.0f; x[1] = 0.0f; x[2] = 2.0f; x[3] = -0.5f;
  Tensor y;
  relu.forward(x, y, false);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  EXPECT_EQ(y[3], 0.0f);
}

TEST(ReLULayer, GradCheck) {
  ReLU relu;
  const auto r = grad_check_layer(relu, Shape{2, 3, 4, 4});
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(TanhLayer, ForwardMatchesStd) {
  Tanh layer;
  Tensor x({1, 2});
  x[0] = 0.5f; x[1] = -1.25f;
  Tensor y;
  layer.forward(x, y, false);
  EXPECT_NEAR(y[0], std::tanh(0.5f), 1e-6);
  EXPECT_NEAR(y[1], std::tanh(-1.25f), 1e-6);
}

TEST(TanhLayer, GradCheck) {
  Tanh layer;
  const auto r = grad_check_layer(layer, Shape{2, 10});
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(SigmoidLayer, ForwardRange) {
  Sigmoid layer;
  Tensor x({1, 3});
  x[0] = -10.0f; x[1] = 0.0f; x[2] = 10.0f;
  Tensor y;
  layer.forward(x, y, false);
  EXPECT_LT(y[0], 0.01f);
  EXPECT_NEAR(y[1], 0.5f, 1e-6);
  EXPECT_GT(y[2], 0.99f);
}

TEST(SigmoidLayer, GradCheck) {
  Sigmoid layer;
  const auto r = grad_check_layer(layer, Shape{3, 7});
  EXPECT_LT(r.max_rel_error, kTol);
}

// ------------------------------- Flatten ------------------------------------

TEST(FlattenLayer, CollapsesTrailingDims) {
  Flatten f;
  EXPECT_EQ(f.output_shape(Shape{4, 3, 5, 5}), Shape({4, 75}));
}

TEST(FlattenLayer, RoundTripsData) {
  Flatten f;
  Rng rng(5);
  Tensor x({2, 2, 3, 3});
  fill_random(x, rng);
  Tensor y, dx;
  f.forward(x, y, true);
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_EQ(y[i], x[i]);
  f.backward(x, y, y, dx);
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_EQ(dx[i], x[i]);
}

// ------------------------------- Dropout ------------------------------------

TEST(DropoutLayer, EvalModeIsIdentity) {
  Dropout d(0.5);
  Rng rng(6);
  Tensor x({4, 8});
  fill_random(x, rng);
  Tensor y;
  d.forward(x, y, /*train=*/false);
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(DropoutLayer, TrainModePreservesExpectation) {
  Dropout d(0.3, /*seed=*/99);
  Tensor x({1, 20000});
  x.fill(1.0f);
  Tensor y;
  d.forward(x, y, /*train=*/true);
  double mean = 0.0;
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < y.numel(); ++i) {
    mean += y[i];
    zeros += (y[i] == 0.0f);
  }
  mean /= static_cast<double>(y.numel());
  EXPECT_NEAR(mean, 1.0, 0.03) << "inverted dropout keeps E[y]=E[x]";
  EXPECT_NEAR(static_cast<double>(zeros) / y.numel(), 0.3, 0.02);
}

TEST(DropoutLayer, BackwardUsesSameMask) {
  Dropout d(0.5, 123);
  Tensor x({1, 64});
  x.fill(1.0f);
  Tensor y, dx;
  d.forward(x, y, true);
  Tensor dy({1, 64});
  dy.fill(1.0f);
  d.backward(x, y, dy, dx);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(dx[i], y[i]) << "gradient must pass exactly where forward did";
  }
}

TEST(DropoutLayer, RejectsInvalidProbability) {
  EXPECT_THROW(Dropout(-0.1), Error);
  EXPECT_THROW(Dropout(1.0), Error);
}

TEST(DropoutLayer, ZeroProbabilityTrainingBackwardIsIdentity) {
  Dropout d(0.0);
  Tensor x({1, 16});
  x.fill(2.0f);
  Tensor y, dx;
  d.forward(x, y, /*train=*/true);
  Tensor dy({1, 16});
  dy.fill(3.0f);
  d.backward(x, y, dy, dx);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(dx[i], 3.0f);
}

// -------------------------------- Conv --------------------------------------

struct ConvCase {
  std::size_t in_c, out_c, k, stride, pad, h, w;
};

class ConvGradTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGradTest, GradCheck) {
  const ConvCase& p = GetParam();
  Conv2D conv(p.in_c, p.out_c, p.k, p.stride, p.pad);
  const auto r = grad_check_layer(conv, Shape{2, p.in_c, p.h, p.w});
  EXPECT_LT(r.max_rel_error, kTol)
      << "conv " << p.in_c << "->" << p.out_c << " k" << p.k << " s"
      << p.stride << " p" << p.pad;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGradTest,
    ::testing::Values(ConvCase{1, 2, 3, 1, 0, 5, 5},
                      ConvCase{2, 3, 3, 1, 1, 4, 4},
                      ConvCase{1, 1, 1, 1, 0, 3, 3},
                      ConvCase{3, 2, 2, 2, 0, 6, 6},
                      ConvCase{2, 4, 5, 1, 2, 5, 5},
                      ConvCase{1, 2, 3, 2, 1, 7, 5}));

TEST(ConvLayer, OutputShape) {
  Conv2D conv(3, 8, 3, 1, 1);
  EXPECT_EQ(conv.output_shape(Shape{4, 3, 32, 32}), Shape({4, 8, 32, 32}));
  Conv2D strided(3, 8, 3, 2, 0);
  EXPECT_EQ(strided.output_shape(Shape{1, 3, 9, 9}), Shape({1, 8, 4, 4}));
}

TEST(ConvLayer, ParamCountIncludesBias) {
  Conv2D conv(3, 8, 5);
  EXPECT_EQ(conv.param_count(), 8u * 3u * 25u + 8u);
}

TEST(ConvLayer, KnownConvolutionValue) {
  // 1×1 input channel, 2×2 image, 2×2 all-ones kernel, no bias → sum.
  Conv2D conv(1, 1, 2);
  std::vector<float> params(conv.param_count(), 1.0f);
  params.back() = 0.0f;  // bias
  std::vector<float> grads(conv.param_count());
  conv.bind(params, grads);
  Tensor x({1, 1, 2, 2});
  x[0] = 1; x[1] = 2; x[2] = 3; x[3] = 4;
  Tensor y;
  conv.forward(x, y, false);
  ASSERT_EQ(y.numel(), 1u);
  EXPECT_EQ(y[0], 10.0f);
}

TEST(ConvLayer, BiasAddsPerFilter) {
  Conv2D conv(1, 2, 1);
  std::vector<float> params(conv.param_count(), 0.0f);
  params[0] = 1.0f;            // filter 0 weight
  params[1] = 1.0f;            // filter 1 weight
  params[2] = 0.5f;            // bias 0
  params[3] = -0.5f;           // bias 1
  std::vector<float> grads(conv.param_count());
  conv.bind(params, grads);
  Tensor x({1, 1, 1, 1});
  x[0] = 2.0f;
  Tensor y;
  conv.forward(x, y, false);
  EXPECT_EQ(y[0], 2.5f);
  EXPECT_EQ(y[1], 1.5f);
}

TEST(ConvLayer, RejectsWrongChannelCount) {
  Conv2D conv(3, 4, 3);
  Tensor x({1, 2, 8, 8});
  Tensor y;
  EXPECT_THROW(conv.forward(x, y, false), Error);
}

TEST(ConvLayer, RejectsKernelLargerThanInput) {
  Conv2D conv(1, 1, 5);
  EXPECT_THROW(conv.output_shape(Shape{1, 1, 3, 3}), Error);
}

// -------------------------------- Pool --------------------------------------

TEST(MaxPoolLayer, SelectsWindowMax) {
  MaxPool2D pool(2, 2);
  Tensor x({1, 1, 2, 2});
  x[0] = 1; x[1] = 5; x[2] = 3; x[3] = 2;
  Tensor y;
  pool.forward(x, y, false);
  ASSERT_EQ(y.numel(), 1u);
  EXPECT_EQ(y[0], 5.0f);
}

TEST(MaxPoolLayer, BackwardRoutesToArgmax) {
  MaxPool2D pool(2, 2);
  Tensor x({1, 1, 2, 2});
  x[0] = 1; x[1] = 5; x[2] = 3; x[3] = 2;
  Tensor y, dx;
  pool.forward(x, y, /*train=*/true);
  Tensor dy({1, 1, 1, 1});
  dy[0] = 7.0f;
  pool.backward(x, y, dy, dx);
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[1], 7.0f);
  EXPECT_EQ(dx[2], 0.0f);
}

TEST(MaxPoolLayer, GradCheck) {
  MaxPool2D pool(2, 2);
  const auto r = grad_check_layer(pool, Shape{2, 2, 4, 4});
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(MaxPoolLayer, PaddedGradCheck) {
  MaxPool2D pool(3, 1, 1);
  const auto r = grad_check_layer(pool, Shape{1, 2, 4, 4});
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(MaxPoolLayer, PaddedOutputShapePreserved) {
  MaxPool2D pool(3, 1, 1);
  EXPECT_EQ(pool.output_shape(Shape{1, 4, 8, 8}), Shape({1, 4, 8, 8}));
}

// A window that never beats -inf (all -inf, or all NaN) must still route its
// gradient to one of its own taps — the first in-bounds one — never to the
// plane's (0,0).
TEST(MaxPoolLayer, DegenerateWindowsRouteInsideWindow) {
  for (const float fill : {-std::numeric_limits<float>::infinity(),
                           std::numeric_limits<float>::quiet_NaN()}) {
    MaxPool2D pool(2, 2);
    Tensor x({1, 1, 4, 4});
    x.fill(fill);
    Tensor y, dx;
    pool.forward(x, y, true);
    for (std::size_t i = 0; i < y.numel(); ++i) {
      EXPECT_EQ(y[i], -std::numeric_limits<float>::infinity());
    }
    Tensor dy({1, 1, 2, 2});
    dy.fill(1.0f);
    pool.backward(x, y, dy, dx);
    for (std::size_t ih = 0; ih < 4; ++ih) {
      for (std::size_t iw = 0; iw < 4; ++iw) {
        const float want = (ih % 2 == 0 && iw % 2 == 0) ? 1.0f : 0.0f;
        EXPECT_EQ(dx[ih * 4 + iw], want) << "fill " << fill << " at (" << ih
                                         << "," << iw << ")";
      }
    }
  }
}

TEST(AvgPoolLayer, AveragesWindow) {
  AvgPool2D pool(2, 2);
  Tensor x({1, 1, 2, 2});
  x[0] = 1; x[1] = 2; x[2] = 3; x[3] = 6;
  Tensor y;
  pool.forward(x, y, false);
  EXPECT_EQ(y[0], 3.0f);
}

TEST(AvgPoolLayer, GradCheck) {
  AvgPool2D pool(2, 2);
  const auto r = grad_check_layer(pool, Shape{2, 3, 4, 4});
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(AvgPoolLayer, GlobalPoolGradCheck) {
  AvgPool2D pool(4, 4);
  const auto r = grad_check_layer(pool, Shape{1, 2, 4, 4});
  EXPECT_LT(r.max_rel_error, kTol);
}

// ------------------------------- Dense --------------------------------------

TEST(FullyConnectedLayer, KnownAffineValue) {
  FullyConnected fc(2, 2);
  // W = [[1,2],[3,4]], b = [10, 20].
  std::vector<float> params{1, 2, 3, 4, 10, 20};
  std::vector<float> grads(params.size());
  fc.bind(params, grads);
  Tensor x({1, 2});
  x[0] = 1.0f; x[1] = 1.0f;
  Tensor y;
  fc.forward(x, y, false);
  EXPECT_EQ(y[0], 13.0f);
  EXPECT_EQ(y[1], 27.0f);
}

TEST(FullyConnectedLayer, GradCheck) {
  FullyConnected fc(6, 4);
  const auto r = grad_check_layer(fc, Shape{3, 6});
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(FullyConnectedLayer, BatchIndependence) {
  FullyConnected fc(3, 2);
  std::vector<float> params(fc.param_count());
  std::vector<float> grads(fc.param_count());
  Rng rng(8);
  for (auto& p : params) p = static_cast<float>(rng.uniform(-1, 1));
  fc.bind(params, grads);

  Tensor x({2, 3});
  fill_random(x, rng);
  Tensor y_batch;
  fc.forward(x, y_batch, false);

  // Row 0 alone must produce identical output.
  Tensor x0({1, 3});
  for (int i = 0; i < 3; ++i) x0[i] = x[i];
  Tensor y0;
  fc.forward(x0, y0, false);
  EXPECT_NEAR(y0[0], y_batch[0], 1e-6);
  EXPECT_NEAR(y0[1], y_batch[1], 1e-6);
}

TEST(FullyConnectedLayer, BackwardParamsMatchesBackward) {
  FullyConnected full(7, 5), params_only(7, 5);
  std::vector<float> params(full.param_count());
  std::vector<float> grads_full(params.size()), grads_params(params.size());
  Rng rng(21);
  for (auto& p : params) p = static_cast<float>(rng.uniform(-1, 1));
  full.bind(params, grads_full);
  params_only.bind(params, grads_params);
  Tensor x({3, 7}), dy({3, 5});
  fill_random(x, rng);
  fill_random(dy, rng);
  Tensor y, dx, scratch;
  full.forward(x, y, true);
  params_only.forward(x, y, true);
  for (int pass = 0; pass < 2; ++pass) {  // gradients accumulate
    full.backward(x, y, dy, dx);
    params_only.backward_params(x, y, dy, scratch);
    ASSERT_EQ(0, std::memcmp(grads_params.data(), grads_full.data(),
                             grads_full.size() * sizeof(float)))
        << "pass " << pass;
  }
}

TEST(FullyConnectedLayer, XavierInitBounded) {
  FullyConnected fc(100, 50);
  std::vector<float> params(fc.param_count());
  std::vector<float> grads(fc.param_count());
  fc.bind(params, grads);
  Rng rng(3);
  fc.init_params(rng);
  const double limit = std::sqrt(6.0 / 150.0);
  for (std::size_t i = 0; i < 100u * 50u; ++i) {
    EXPECT_LE(std::fabs(params[i]), limit);
  }
  // Biases zero.
  for (std::size_t i = 100u * 50u; i < params.size(); ++i) {
    EXPECT_EQ(params[i], 0.0f);
  }
}

// ------------------------------- Residual ------------------------------------

TEST(ResidualLayer, IdentityShortcutPreservesShape) {
  ResidualBlock block(8, 8);
  EXPECT_EQ(block.output_shape(Shape{2, 8, 8, 8}), Shape({2, 8, 8, 8}));
}

TEST(ResidualLayer, ProjectedShortcutChangesShape) {
  ResidualBlock block(8, 16, 2);
  EXPECT_EQ(block.output_shape(Shape{2, 8, 8, 8}), Shape({2, 16, 4, 4}));
}

TEST(ResidualLayer, ZeroBranchIsReluOfInput) {
  // With all conv weights zero, F(x) = 0 and the identity shortcut makes
  // y = ReLU(x).
  ResidualBlock block(2, 2);
  std::vector<float> params(block.param_count(), 0.0f);
  std::vector<float> grads(block.param_count());
  block.bind(params, grads);
  Tensor x({1, 2, 3, 3});
  Rng rng(4);
  ::ds::testing::fill_random(x, rng, 1.0);
  Tensor y;
  block.forward(x, y, false);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    EXPECT_EQ(y[i], x[i] > 0.0f ? x[i] : 0.0f);
  }
}

TEST(ResidualLayer, IdentityGradCheck) {
  ResidualBlock block(2, 2);
  const auto r = grad_check_layer(block, Shape{1, 2, 4, 4}, /*seed=*/77);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(ResidualLayer, ProjectedGradCheck) {
  ResidualBlock block(2, 3, 2);
  const auto r = grad_check_layer(block, Shape{1, 2, 4, 4}, /*seed=*/78);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(ResidualLayer, ParamCountSumsSubLayers) {
  ResidualBlock identity(4, 4);
  // conv1: 4·4·9+4, conv2: 4·4·9+4 — no projection.
  EXPECT_EQ(identity.param_count(), 2u * (4u * 4u * 9u + 4u));
  ResidualBlock projected(4, 8, 2);
  EXPECT_EQ(projected.param_count(),
            (8u * 4u * 9u + 8u) + (8u * 8u * 9u + 8u) + (8u * 4u * 1u + 8u));
}

// --------------------------------- LRN ---------------------------------------

TEST(LrnLayer, PreservesShape) {
  LocalResponseNorm lrn;
  EXPECT_EQ(lrn.output_shape(Shape{2, 16, 8, 8}), Shape({2, 16, 8, 8}));
}

TEST(LrnLayer, UnitInputKnownValue) {
  // x = 1 everywhere, window 3, α=3, β=1, k=1: interior channels see
  // sumsq=3 ⇒ scale = 1 + (3/3)·3 = 4 ⇒ y = 1/4.
  LocalResponseNorm lrn(3, 3.0, 1.0, 1.0);
  Tensor x({1, 5, 1, 1});
  x.fill(1.0f);
  Tensor y;
  lrn.forward(x, y, false);
  EXPECT_NEAR(y[2], 0.25f, 1e-6);
  // Edge channel 0 sees only 2 neighbours: scale = 1 + 2 = 3.
  EXPECT_NEAR(y[0], 1.0f / 3.0f, 1e-6);
}

TEST(LrnLayer, SuppressesHighActivityChannels) {
  LocalResponseNorm lrn(3, 1.0, 0.75, 2.0);
  Tensor lone({1, 3, 1, 1});
  lone[1] = 1.0f;  // isolated activation
  Tensor crowd({1, 3, 1, 1});
  crowd.fill(1.0f);  // same activation amid active neighbours
  Tensor y1, y2;
  lrn.forward(lone, y1, false);
  lrn.forward(crowd, y2, false);
  EXPECT_GT(y1[1], y2[1]) << "competition across channels";
}

TEST(LrnLayer, GradCheck) {
  LocalResponseNorm lrn(3, 0.5, 0.75, 2.0);
  const auto r = grad_check_layer(lrn, Shape{2, 6, 3, 3});
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(LrnLayer, GradCheckWideWindow) {
  LocalResponseNorm lrn(5, 1e-1, 0.5, 1.0);
  const auto r = grad_check_layer(lrn, Shape{1, 8, 2, 2});
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(LrnLayer, RejectsEvenWindow) {
  EXPECT_THROW(LocalResponseNorm(4), Error);
}

// ----------------------- Bitwise reference battery -------------------------
//
// The LRN and max-pool kernels are vectorised rewrites whose contract is to
// be bit-identical to the straightforward per-element loops below (the
// max-pool reference carries the degenerate-window fix: its index starts at
// the window's first in-bounds tap). Both sides are compiled with the same
// flags, so any change in summation order or FMA contraction shows up here.

void ref_lrn_forward(const Tensor& x, Tensor& y, std::vector<float>& scale,
                     std::size_t size, double alpha, double beta, double k) {
  y = Tensor(x.shape());
  const std::size_t batch = x.dim(0), channels = x.dim(1);
  const std::size_t hw = x.dim(2) * x.dim(3);
  scale.resize(x.numel());
  const long half = static_cast<long>(size / 2);
  const float coeff = static_cast<float>(alpha / static_cast<double>(size));

  for (std::size_t n = 0; n < batch; ++n) {
    const float* xn = x.data() + n * channels * hw;
    float* yn = y.data() + n * channels * hw;
    float* sn = scale.data() + n * channels * hw;
    for (std::size_t c = 0; c < channels; ++c) {
      const long lo = std::max<long>(0, static_cast<long>(c) - half);
      const long hi = std::min<long>(static_cast<long>(channels) - 1,
                                     static_cast<long>(c) + half);
      for (std::size_t i = 0; i < hw; ++i) {
        float sumsq = 0.0f;
        for (long cc = lo; cc <= hi; ++cc) {
          const float v = xn[static_cast<std::size_t>(cc) * hw + i];
          sumsq += v * v;
        }
        const float s = static_cast<float>(k) + coeff * sumsq;
        sn[c * hw + i] = s;
        yn[c * hw + i] =
            xn[c * hw + i] * std::pow(s, static_cast<float>(-beta));
      }
    }
  }
}

void ref_lrn_backward(const Tensor& x, const Tensor& y, const Tensor& dy,
                      Tensor& dx, const std::vector<float>& scale,
                      std::size_t size, double alpha, double beta) {
  dx = Tensor(x.shape());
  const std::size_t batch = x.dim(0), channels = x.dim(1);
  const std::size_t hw = x.dim(2) * x.dim(3);
  const long half = static_cast<long>(size / 2);
  const float coeff = static_cast<float>(alpha / static_cast<double>(size));
  const float b = static_cast<float>(beta);

  for (std::size_t n = 0; n < batch; ++n) {
    const std::size_t base = n * channels * hw;
    const float* xn = x.data() + base;
    const float* yn = y.data() + base;
    const float* gn = dy.data() + base;
    const float* sn = scale.data() + base;
    float* on = dx.data() + base;
    for (std::size_t c = 0; c < channels; ++c) {
      const long lo = std::max<long>(0, static_cast<long>(c) - half);
      const long hi = std::min<long>(static_cast<long>(channels) - 1,
                                     static_cast<long>(c) + half);
      for (std::size_t i = 0; i < hw; ++i) {
        const std::size_t idx = c * hw + i;
        float cross = 0.0f;
        for (long cc = lo; cc <= hi; ++cc) {
          const std::size_t j = static_cast<std::size_t>(cc) * hw + i;
          cross += gn[j] * yn[j] / sn[j];
        }
        on[idx] = gn[idx] * std::pow(sn[idx], -b) -
                  2.0f * coeff * b * xn[idx] * cross;
      }
    }
  }
}

void ref_maxpool_forward(const Tensor& x, Tensor& y,
                         std::vector<std::size_t>& argmax, std::size_t kernel,
                         std::size_t stride, std::size_t pad) {
  const std::size_t h = x.dim(2), w = x.dim(3);
  const std::size_t ho = (h + 2 * pad - kernel) / stride + 1;
  const std::size_t wo = (w + 2 * pad - kernel) / stride + 1;
  y = Tensor({x.dim(0), x.dim(1), ho, wo});
  argmax.resize(y.numel());
  const std::size_t planes = x.dim(0) * x.dim(1);
  for (std::size_t p = 0; p < planes; ++p) {
    const float* xp = x.data() + p * h * w;
    float* yp = y.data() + p * ho * wo;
    std::size_t* ap = argmax.data() + p * ho * wo;
    for (std::size_t oh = 0; oh < ho; ++oh) {
      for (std::size_t ow = 0; ow < wo; ++ow) {
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_idx =
            static_cast<std::size_t>(std::max<long>(
                0, static_cast<long>(oh * stride) - static_cast<long>(pad))) *
                w +
            static_cast<std::size_t>(std::max<long>(
                0, static_cast<long>(ow * stride) - static_cast<long>(pad)));
        for (std::size_t kh = 0; kh < kernel; ++kh) {
          const long ih = static_cast<long>(oh * stride + kh) -
                          static_cast<long>(pad);
          if (ih < 0 || ih >= static_cast<long>(h)) continue;
          for (std::size_t kw = 0; kw < kernel; ++kw) {
            const long iw = static_cast<long>(ow * stride + kw) -
                            static_cast<long>(pad);
            if (iw < 0 || iw >= static_cast<long>(w)) continue;
            const std::size_t idx =
                static_cast<std::size_t>(ih) * w + static_cast<std::size_t>(iw);
            if (xp[idx] > best) {
              best = xp[idx];
              best_idx = idx;
            }
          }
        }
        yp[oh * wo + ow] = best;
        ap[oh * wo + ow] = p * h * w + best_idx;
      }
    }
  }
}

void ref_maxpool_backward(const Tensor& x, const Tensor& dy,
                          const std::vector<std::size_t>& argmax, Tensor& dx) {
  dx = Tensor(x.shape());
  for (std::size_t i = 0; i < argmax.size(); ++i) dx[argmax[i]] += dy[i];
}

::testing::AssertionResult bitwise_equal(const Tensor& got,
                                         const Tensor& want) {
  if (got.shape() != want.shape()) {
    return ::testing::AssertionFailure()
           << "shape " << got.shape().str() << " vs " << want.shape().str();
  }
  if (std::memcmp(got.data(), want.data(), got.numel() * sizeof(float)) ==
      0) {
    return ::testing::AssertionSuccess();
  }
  for (std::size_t i = 0; i < got.numel(); ++i) {
    if (std::memcmp(got.data() + i, want.data() + i, sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "first difference at " << i << ": " << got[i] << " vs "
             << want[i];
    }
  }
  return ::testing::AssertionFailure() << "memcmp mismatch";
}

TEST(LrnBitwise, MatchesReferenceOverShapeBattery) {
  Rng rng(2024);
  int case_id = 0;
  for (const std::size_t size : {1u, 3u, 5u, 7u}) {
    for (const std::size_t channels : {1u, 4u, 9u}) {  // includes c < size
      for (const std::size_t batch : {1u, 16u}) {
        for (const double beta : {0.5, 0.75, 1.0}) {
          // Alternate AlexNet's α/k with a large α so s spans many values.
          const bool big = (case_id++ % 2) == 1;
          const double alpha = big ? 0.5 : 1e-4;
          const double k = big ? 1.0 : 2.0;
          Tensor x({batch, channels, 5, 7}), dy({batch, channels, 5, 7});
          fill_random(x, rng, 2.0);
          fill_random(dy, rng, 1.0);
          SCOPED_TRACE(::testing::Message()
                       << "size " << size << " channels " << channels
                       << " batch " << batch << " beta " << beta
                       << " alpha " << alpha);
          Tensor want_y, want_dx;
          std::vector<float> scale;
          ref_lrn_forward(x, want_y, scale, size, alpha, beta, k);
          ref_lrn_backward(x, want_y, dy, want_dx, scale, size, alpha, beta);

          LocalResponseNorm lrn(size, alpha, beta, k);
          Tensor y, dx;
          lrn.forward(x, y, true);
          lrn.backward(x, y, dy, dx);
          EXPECT_TRUE(bitwise_equal(y, want_y));
          EXPECT_TRUE(bitwise_equal(dx, want_dx));
        }
      }
    }
  }
}

// Inference computes s^{-β} one row at a time instead of into the
// per-element buffer; the output is the same bits.
TEST(LrnBitwise, InferenceForwardMatchesTraining) {
  Rng rng(31);
  Tensor x({4, 9, 5, 7});
  fill_random(x, rng, 2.0);
  LocalResponseNorm trained(5, 0.5, 0.75, 1.0);
  LocalResponseNorm inferred(5, 0.5, 0.75, 1.0);
  Tensor want, got;
  trained.forward(x, want, true);
  inferred.forward(x, got, false);
  EXPECT_TRUE(bitwise_equal(got, want));
}

// The powf memo keeps state across calls; that state must never show in
// the output. A layer warmed on one tensor and a fresh layer agree bit for
// bit on the next.
TEST(LrnBitwise, MemoStateNeverChangesOutput) {
  Rng rng(77);
  Tensor a({16, 16, 8, 8}), b({16, 16, 8, 8}), dy({16, 16, 8, 8});
  fill_random(a, rng, 3.0);
  fill_random(b, rng, 3.0);
  fill_random(dy, rng, 1.0);
  LocalResponseNorm warm(5, 1e-2, 0.75, 2.0);
  Tensor y, dx;
  warm.forward(a, y, true);
  warm.backward(a, y, dy, dx);
  warm.forward(b, y, true);
  warm.backward(b, y, dy, dx);

  LocalResponseNorm fresh(5, 1e-2, 0.75, 2.0);
  Tensor fresh_y, fresh_dx;
  fresh.forward(b, fresh_y, true);
  fresh.backward(b, fresh_y, dy, fresh_dx);
  EXPECT_TRUE(bitwise_equal(y, fresh_y));
  EXPECT_TRUE(bitwise_equal(dx, fresh_dx));
}

struct PoolCase {
  std::size_t kernel, stride, pad, h, w;
};

TEST(MaxPoolBitwise, MatchesReferenceOverShapeBattery) {
  const PoolCase cases[] = {
      {2, 2, 0, 8, 8},   {2, 2, 0, 7, 9},   {2, 2, 0, 32, 32},
      {3, 1, 1, 5, 7},   {3, 1, 1, 16, 16}, {3, 2, 1, 7, 7},
      {3, 2, 1, 8, 9},   {2, 3, 0, 8, 8},   {2, 3, 1, 7, 8},
      {1, 2, 0, 5, 5},   {3, 1, 1, 1, 1},   {3, 3, 2, 4, 6},
      {2, 2, 1, 7, 7},   {3, 1, 1, 8, 8},   {3, 1, 1, 2, 9},
      {3, 1, 1, 9, 2},   {3, 1, 1, 6, 1},   {3, 1, 0, 6, 7},
  };
  const float ninf = -std::numeric_limits<float>::infinity();
  Rng rng(99);
  for (const PoolCase& pc : cases) {
    // Inputs: continuous values, heavy ties (three levels), and a mix with
    // -inf taps and NaNs (so some windows never beat -inf).
    for (int kind = 0; kind < 3; ++kind) {
      SCOPED_TRACE(::testing::Message()
                   << "k" << pc.kernel << " s" << pc.stride << " p" << pc.pad
                   << " " << pc.h << "x" << pc.w << " input kind " << kind);
      Tensor x({3, 2, pc.h, pc.w});
      for (std::size_t i = 0; i < x.numel(); ++i) {
        const double u = rng.uniform();
        if (kind == 0) {
          x[i] = static_cast<float>(rng.uniform(-1, 1));
        } else if (kind == 1) {
          x[i] = static_cast<float>(std::floor(u * 3.0));
        } else {
          x[i] = u < 0.6 ? ninf
                 : u < 0.7 ? std::numeric_limits<float>::quiet_NaN()
                           : static_cast<float>(u);
        }
      }
      Tensor dy;
      std::vector<std::size_t> argmax;
      Tensor want_y, want_dx;
      ref_maxpool_forward(x, want_y, argmax, pc.kernel, pc.stride, pc.pad);
      dy = Tensor(want_y.shape());
      fill_random(dy, rng, 1.0);
      ref_maxpool_backward(x, dy, argmax, want_dx);

      MaxPool2D pool(pc.kernel, pc.stride, pc.pad);
      Tensor y, dx;
      pool.forward(x, y, true);
      pool.backward(x, y, dy, dx);
      EXPECT_TRUE(bitwise_equal(y, want_y));
      EXPECT_TRUE(bitwise_equal(dx, want_dx));
    }
  }
}

// ------------------------------ Inception -----------------------------------

TEST(InceptionLayer, OutputChannelsAreSumOfBranches) {
  InceptionBlock block(8, 4, 2, 6, 2, 3, 5);
  EXPECT_EQ(block.out_channels(), 4u + 6u + 3u + 5u);
  EXPECT_EQ(block.output_shape(Shape{2, 8, 8, 8}), Shape({2, 18, 8, 8}));
}

// Gradcheck seeds are pinned to draws whose pre-activations stay clear of
// the ReLU/maxpool kinks (central differences measure the average one-sided
// slope there, not the reported subgradient). The RNG is fully
// deterministic, so a verified-clean seed stays clean.
TEST(InceptionLayer, GradCheck) {
  InceptionBlock block(2, 2, 1, 2, 1, 2, 1);
  const auto r = grad_check_layer(block, Shape{1, 2, 4, 4}, /*seed=*/329);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(InceptionLayer, BatchedGradCheck) {
  InceptionBlock block(2, 1, 1, 1, 1, 1, 1);
  const auto r = grad_check_layer(block, Shape{2, 2, 3, 3}, /*seed=*/654);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(InceptionLayer, RejectsWrongInputChannels) {
  InceptionBlock block(8, 4, 2, 4, 2, 2, 2);
  Tensor x({1, 4, 8, 8});
  Tensor y;
  EXPECT_THROW(block.forward(x, y, false), Error);
}

TEST(InceptionLayer, ParamCountMatchesBoundSpans) {
  InceptionBlock block(4, 3, 2, 4, 2, 3, 2);
  std::vector<float> params(block.param_count());
  std::vector<float> grads(block.param_count());
  EXPECT_NO_THROW(block.bind(params, grads));
  Rng rng(4);
  EXPECT_NO_THROW(block.init_params(rng));
}

TEST(InceptionLayer, FlopsArePositiveAndAdditive) {
  InceptionBlock block(4, 3, 2, 4, 2, 3, 2);
  const double f = block.flops_per_sample(Shape{1, 4, 8, 8});
  EXPECT_GT(f, 0.0);
}

}  // namespace
}  // namespace ds
