#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <string>

#include "core/easgd_rules.hpp"
#include "data/dataset.hpp"
#include "data/sampler.hpp"
#include "nn/layers.hpp"
#include "nn/models.hpp"
#include "nn/network.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace ds {
namespace {

using ::ds::testing::fill_random;

// ------------------------------ ParamArena ----------------------------------

TEST(ParamArena, PackedLayoutIsContiguous) {
  ParamArena arena({4, 6, 2}, PackMode::kPacked);
  EXPECT_EQ(arena.total_params(), 12u);
  const float* base = arena.layer_params(0).data();
  EXPECT_EQ(arena.layer_params(1).data(), base + 4);
  EXPECT_EQ(arena.layer_params(2).data(), base + 10);
  EXPECT_EQ(arena.full_params().size(), 12u);
}

TEST(ParamArena, PerLayerLayoutIsSeparate) {
  ParamArena arena({4, 6}, PackMode::kPerLayer);
  EXPECT_NE(arena.layer_params(0).data() + 4, arena.layer_params(1).data());
  EXPECT_THROW(arena.full_params(), Error);
}

TEST(ParamArena, ZeroGradsClearsEverything) {
  ParamArena arena({3, 3}, PackMode::kPerLayer);
  arena.layer_grads(0)[1] = 5.0f;
  arena.layer_grads(1)[2] = 7.0f;
  arena.zero_grads();
  EXPECT_EQ(arena.layer_grads(0)[1], 0.0f);
  EXPECT_EQ(arena.layer_grads(1)[2], 0.0f);
}

TEST(ParamArena, CopyAcrossPackModes) {
  ParamArena packed({2, 3}, PackMode::kPacked);
  ParamArena layered({2, 3}, PackMode::kPerLayer);
  for (std::size_t i = 0; i < 5; ++i) {
    packed.full_params()[i] = static_cast<float>(i + 1);
  }
  layered.copy_params_from(packed);
  EXPECT_EQ(layered.layer_params(0)[0], 1.0f);
  EXPECT_EQ(layered.layer_params(0)[1], 2.0f);
  EXPECT_EQ(layered.layer_params(1)[2], 5.0f);
}

TEST(ParamArena, GeometryMismatchRejected) {
  ParamArena a({2, 3}, PackMode::kPacked);
  ParamArena b({3, 2}, PackMode::kPacked);
  EXPECT_THROW(a.copy_params_from(b), Error);
}

TEST(ParamArena, ZeroSizedLayersAllowed) {
  ParamArena arena({0, 5, 0}, PackMode::kPacked);
  EXPECT_EQ(arena.total_params(), 5u);
  EXPECT_TRUE(arena.layer_params(0).empty());
  EXPECT_EQ(arena.layer_params(1).size(), 5u);
}

// -------------------------------- Loss --------------------------------------

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogC) {
  SoftmaxCrossEntropy loss;
  Tensor logits({2, 4});
  logits.fill(0.0f);
  const std::vector<std::int32_t> labels{1, 3};
  const LossResult r = loss.evaluate(logits, labels);
  EXPECT_NEAR(r.loss, std::log(4.0), 1e-6);
}

TEST(SoftmaxCrossEntropy, PerfectPredictionLowLoss) {
  SoftmaxCrossEntropy loss;
  Tensor logits({1, 3});
  logits[0] = 20.0f; logits[1] = 0.0f; logits[2] = 0.0f;
  const std::vector<std::int32_t> labels{0};
  const LossResult r = loss.evaluate(logits, labels);
  EXPECT_LT(r.loss, 1e-6);
  EXPECT_EQ(r.correct, 1u);
}

TEST(SoftmaxCrossEntropy, GradientSumsToZeroPerRow) {
  SoftmaxCrossEntropy loss;
  Tensor logits({2, 5});
  Rng rng(9);
  fill_random(logits, rng, 2.0);
  const std::vector<std::int32_t> labels{2, 4};
  Tensor dlogits;
  loss.forward_backward(logits, labels, dlogits);
  for (std::size_t n = 0; n < 2; ++n) {
    double row = 0.0;
    for (std::size_t c = 0; c < 5; ++c) row += dlogits[n * 5 + c];
    EXPECT_NEAR(row, 0.0, 1e-6);
  }
}

TEST(SoftmaxCrossEntropy, GradientMatchesFiniteDifference) {
  SoftmaxCrossEntropy loss;
  Tensor logits({2, 3});
  Rng rng(10);
  fill_random(logits, rng, 1.0);
  const std::vector<std::int32_t> labels{0, 2};
  Tensor dlogits;
  loss.forward_backward(logits, labels, dlogits);
  const double eps = 1e-3;
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    const float saved = logits[i];
    logits[i] = saved + static_cast<float>(eps);
    const double lp = loss.evaluate(logits, labels).loss;
    logits[i] = saved - static_cast<float>(eps);
    const double lm = loss.evaluate(logits, labels).loss;
    logits[i] = saved;
    EXPECT_NEAR(dlogits[i], (lp - lm) / (2 * eps), 1e-3);
  }
}

TEST(SoftmaxCrossEntropy, NumericallyStableForHugeLogits) {
  SoftmaxCrossEntropy loss;
  Tensor logits({1, 3});
  logits[0] = 1000.0f; logits[1] = 999.0f; logits[2] = -1000.0f;
  const std::vector<std::int32_t> labels{0};
  const LossResult r = loss.evaluate(logits, labels);
  EXPECT_TRUE(std::isfinite(r.loss));
  EXPECT_LT(r.loss, 1.0);
}

TEST(SoftmaxCrossEntropy, RejectsBadLabels) {
  SoftmaxCrossEntropy loss;
  Tensor logits({1, 3});
  const std::vector<std::int32_t> labels{5};
  EXPECT_THROW(loss.evaluate(logits, labels), Error);
}

// ------------------------------- Network ------------------------------------

std::unique_ptr<Network> tiny_net(PackMode pack = PackMode::kPacked,
                                  std::uint64_t seed = 7) {
  Rng rng(seed);
  return make_tiny_mlp(rng, pack);
}

TEST(Network, FinalizeBindsAndCountsParams) {
  auto net = tiny_net();
  EXPECT_TRUE(net->finalized());
  EXPECT_EQ(net->param_count(), 64u * 32 + 32 + 32 * 4 + 4);
}

TEST(Network, ForwardIsDeterministic) {
  auto net = tiny_net();
  Tensor x({2, 1, 8, 8});
  Rng rng(11);
  fill_random(x, rng);
  const Tensor& y1 = net->forward(x, false);
  std::vector<float> first(y1.span().begin(), y1.span().end());
  const Tensor& y2 = net->forward(x, false);
  for (std::size_t i = 0; i < first.size(); ++i) EXPECT_EQ(y2[i], first[i]);
}

TEST(Network, IdenticalSeedsGiveIdenticalNets) {
  auto a = tiny_net(PackMode::kPacked, 5);
  auto b = tiny_net(PackMode::kPacked, 5);
  const auto pa = a->arena().full_params();
  const auto pb = b->arena().full_params();
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
}

TEST(Network, TrainingReducesLoss) {
  auto net = tiny_net();
  SyntheticSpec spec;
  spec.classes = 4;
  spec.channels = 1;
  spec.height = 8;
  spec.width = 8;
  spec.train_count = 256;
  spec.test_count = 64;
  spec.noise = 0.8;
  TrainTest data = make_synthetic(spec);
  normalize(data.train);

  BatchSampler sampler(data.train, 16, 3);
  Tensor batch;
  std::vector<std::int32_t> labels;

  double first_loss = 0.0, last_loss = 0.0;
  for (int it = 0; it < 120; ++it) {
    sampler.next(batch, labels);
    net->zero_grads();
    const LossResult r = net->forward_backward(batch, labels);
    if (it == 0) first_loss = r.loss;
    last_loss = r.loss;
    sgd_step(net->arena().full_params(), net->arena().full_grads(), 0.05f);
  }
  EXPECT_LT(last_loss, 0.6 * first_loss);
}

TEST(Network, PackedAndPerLayerTrainIdentically) {
  // The arena layout is a communication/layout concern; the math must be
  // bit-identical (same init, same batches).
  auto packed = tiny_net(PackMode::kPacked, 21);
  auto layered = tiny_net(PackMode::kPerLayer, 21);

  SyntheticSpec spec;
  spec.classes = 4;
  spec.channels = 1;
  spec.height = 8;
  spec.width = 8;
  spec.train_count = 64;
  spec.test_count = 16;
  TrainTest data = make_synthetic(spec);

  BatchSampler s1(data.train, 8, 5), s2(data.train, 8, 5);
  Tensor b1, b2;
  std::vector<std::int32_t> l1, l2;
  for (int it = 0; it < 10; ++it) {
    s1.next(b1, l1);
    s2.next(b2, l2);
    packed->zero_grads();
    layered->zero_grads();
    packed->forward_backward(b1, l1);
    layered->forward_backward(b2, l2);
    for (std::size_t l = 0; l < packed->arena().layer_count(); ++l) {
      sgd_step(packed->arena().layer_params(l), packed->arena().layer_grads(l),
               0.05f);
      sgd_step(layered->arena().layer_params(l),
               layered->arena().layer_grads(l), 0.05f);
    }
  }
  for (std::size_t l = 0; l < packed->arena().layer_count(); ++l) {
    const auto pp = packed->arena().layer_params(l);
    const auto lp = layered->arena().layer_params(l);
    for (std::size_t i = 0; i < pp.size(); ++i) {
      ASSERT_EQ(pp[i], lp[i]) << "layer " << l << " index " << i;
    }
  }
}

TEST(Network, GradientsAccumulateAcrossCalls) {
  auto net = tiny_net();
  Tensor x({1, 1, 8, 8});
  Rng rng(13);
  fill_random(x, rng);
  const std::vector<std::int32_t> labels{1};
  net->zero_grads();
  net->forward_backward(x, labels);
  std::vector<float> once(net->arena().full_grads().begin(),
                          net->arena().full_grads().end());
  net->forward_backward(x, labels);
  const auto twice = net->arena().full_grads();
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(twice[i], 2.0f * once[i], 1e-5f + std::fabs(once[i]) * 1e-3f);
  }
}

// Layer 0's input gradient is skipped (nobody reads dL/d(batch)). A
// leading Dropout(0), an exact identity, moves the same layers to index 1,
// where they run the full backward: every parameter gradient must match.
TEST(Network, FirstLayerSkipsInputGradientBitExactly) {
  const auto conv_layers = [] {
    std::vector<LayerPtr> l;
    l.push_back(std::make_unique<Conv2D>(3, 8, 3, 1, 1));  // direct at 16x16
    l.push_back(std::make_unique<ReLU>());
    l.push_back(std::make_unique<MaxPool2D>(2, 2));
    l.push_back(std::make_unique<Conv2D>(8, 8, 3, 1, 1));  // im2col at 8x8
    l.push_back(std::make_unique<Flatten>());
    l.push_back(std::make_unique<FullyConnected>(512, 10));
    return l;
  };
  const auto dense_layers = [] {
    std::vector<LayerPtr> l;
    l.push_back(std::make_unique<FullyConnected>(48, 16));
    l.push_back(std::make_unique<ReLU>());
    l.push_back(std::make_unique<FullyConnected>(16, 10));
    return l;
  };
  const auto build = [](Shape input, std::vector<LayerPtr> layers,
                        bool identity_first) {
    auto net = std::make_unique<Network>(std::move(input));
    if (identity_first) net->add(std::make_unique<Dropout>(0.0));
    for (auto& l : layers) net->add(std::move(l));
    Rng rng(5);
    net->finalize(rng);
    return net;
  };
  const std::vector<std::int32_t> labels{1, 7, 3};
  for (const bool conv : {true, false}) {
    const Shape input = conv ? Shape{3, 16, 16} : Shape{48};
    const auto layers = conv ? conv_layers : dense_layers;
    auto skipped = build(input, layers(), false);
    auto full = build(input, layers(), true);
    std::vector<std::size_t> dims{3};
    for (std::size_t i = 0; i < input.rank(); ++i) dims.push_back(input.dim(i));
    Tensor x{Shape(dims)};
    Rng rng(31);
    fill_random(x, rng);
    for (int pass = 0; pass < 2; ++pass) {  // gradients accumulate
      skipped->forward_backward(x, labels);
      full->forward_backward(x, labels);
      for (std::size_t l = 0; l < skipped->layer_count(); ++l) {
        const auto want = full->arena().layer_grads(l + 1);
        const auto got = skipped->arena().layer_grads(l);
        ASSERT_EQ(got.size(), want.size());
        ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                 got.size() * sizeof(float)))
            << (conv ? "conv" : "dense") << " net, layer " << l << ", pass "
            << pass;
      }
    }
  }
}

TEST(Network, CommChunkSizesSkipParamFreeLayers) {
  Rng rng(2);
  auto net = make_lenet_s(rng);
  const auto chunks = net->comm_chunk_sizes();
  ASSERT_EQ(chunks.size(), 4u);  // conv, conv, fc, fc
  EXPECT_EQ(chunks[0], 156u);
  EXPECT_EQ(chunks[3], 650u);
}

TEST(Network, RejectsDoubleFinalize) {
  Rng rng(1);
  Network net(Shape{1, 8, 8});
  net.add(std::make_unique<Flatten>());
  net.add(std::make_unique<FullyConnected>(64, 4));
  net.finalize(rng);
  EXPECT_THROW(net.finalize(rng), Error);
  EXPECT_THROW(net.add(std::make_unique<ReLU>()), Error);
}

TEST(Network, RejectsNonLogitsTail) {
  Rng rng(1);
  Network net(Shape{1, 8, 8});
  net.add(std::make_unique<ReLU>());  // still rank 4 at the end
  EXPECT_THROW(net.finalize(rng), Error);
}

TEST(Network, SummaryMentionsEveryLayer) {
  Rng rng(1);
  auto net = make_lenet_s(rng);
  const std::string s = net->summary();
  EXPECT_NE(s.find("conv 1->6"), std::string::npos);
  EXPECT_NE(s.find("fc 192->64"), std::string::npos);
  EXPECT_NE(s.find("total params: 14970"), std::string::npos);
}

// ------------------------------ Model zoo -----------------------------------

TEST(ModelZoo, LeNetShapesAndFlops) {
  Rng rng(1);
  auto net = make_lenet_s(rng);
  EXPECT_EQ(net->param_count(), 14970u);
  EXPECT_GT(net->flops_per_sample(), 1e5);
  Tensor x({2, 1, 28, 28});
  const Tensor& y = net->forward(x, false);
  EXPECT_EQ(y.shape(), Shape({2, 10}));
}

TEST(ModelZoo, AlexNetForwardShape) {
  Rng rng(1);
  auto net = make_alexnet_s(rng);
  Tensor x({2, 3, 32, 32});
  EXPECT_EQ(net->forward(x, false).shape(), Shape({2, 10}));
}

TEST(ModelZoo, VggForwardShape) {
  Rng rng(1);
  auto net = make_vgg_s(rng);
  Tensor x({1, 3, 32, 32});
  EXPECT_EQ(net->forward(x, false).shape(), Shape({1, 10}));
  EXPECT_GT(net->param_count(), make_alexnet_s(rng)->param_count());
}

TEST(ModelZoo, GoogleNetForwardShape) {
  Rng rng(1);
  auto net = make_googlenet_s(rng);
  Tensor x({1, 3, 32, 32});
  EXPECT_EQ(net->forward(x, false).shape(), Shape({1, 10}));
}

TEST(ModelZoo, ResNetForwardShape) {
  Rng rng(1);
  auto net = make_resnet_s(rng);
  Tensor x({2, 3, 32, 32});
  EXPECT_EQ(net->forward(x, false).shape(), Shape({2, 10}));
}

TEST(ModelZoo, ResNetBackwardRuns) {
  Rng rng(1);
  auto net = make_resnet_s(rng);
  Tensor x({2, 3, 32, 32});
  fill_random(x, rng);
  const std::vector<std::int32_t> labels{0, 1};
  net->zero_grads();
  const LossResult r = net->forward_backward(x, labels);
  EXPECT_TRUE(std::isfinite(r.loss));
  EXPECT_GT(max_abs(net->arena().layer_grads(0)), 0.0f);
}

TEST(ModelZoo, GoogleNetBackwardRuns) {
  Rng rng(1);
  auto net = make_googlenet_s(rng);
  Tensor x({2, 3, 32, 32});
  fill_random(x, rng);
  const std::vector<std::int32_t> labels{0, 1};
  net->zero_grads();
  const LossResult r = net->forward_backward(x, labels);
  EXPECT_TRUE(std::isfinite(r.loss));
  // Some gradient must be non-zero end to end (first conv included).
  EXPECT_GT(max_abs(net->arena().layer_grads(0)), 0.0f);
}

// Composite blocks sum their stages' flops and parameters; the benches'
// virtual time is built on these figures.
TEST(ModelZoo, CompositeModelsKeepTheirFlopsAndParamCounts) {
  Rng rng(1);
  const auto googlenet = make_googlenet_s(rng);
  EXPECT_EQ(googlenet->flops_per_sample(), 10368192.0);
  EXPECT_EQ(googlenet->param_count(), 13862u);
  const auto resnet = make_resnet_s(rng);
  EXPECT_EQ(resnet->flops_per_sample(), 103542528.0);
  EXPECT_EQ(resnet->param_count(), 96202u);
}

TEST(ModelZoo, PaperMetadataMatchesPaperNumbers) {
  EXPECT_NEAR(paper_alexnet().weight_bytes, 249.0 * 1024 * 1024, 1.0);
  EXPECT_NEAR(paper_vgg19().weight_bytes, 575.0 * 1024 * 1024, 1.0);
  EXPECT_GT(paper_vgg19().flops_per_sample,
            paper_googlenet().flops_per_sample);
  EXPECT_GT(paper_googlenet().comm_layers, paper_vgg19().comm_layers);
}

// ------------------------- Zoo-wide memory and backward ---------------------

struct ZooModel {
  const char* name;
  std::unique_ptr<Network> (*make)(Rng&, PackMode);
};

const ZooModel kZoo[] = {{"lenet_s", make_lenet_s},
                         {"alexnet_s", make_alexnet_s},
                         {"vgg_s", make_vgg_s},
                         {"googlenet_s", make_googlenet_s},
                         {"resnet_s", make_resnet_s},
                         {"tiny_mlp", make_tiny_mlp}};

std::unique_ptr<Network> build_zoo(const ZooModel& m) {
  Rng rng(17);
  return m.make(rng, PackMode::kPacked);
}

Tensor zoo_batch(const Network& net, std::size_t batch, std::uint64_t seed) {
  std::vector<std::size_t> dims{batch};
  for (const std::size_t d : net.input_shape().dims()) dims.push_back(d);
  Tensor x{Shape(dims)};
  Rng rng(seed);
  fill_random(x, rng);
  return x;
}

std::vector<std::int32_t> zoo_labels(const Network& net, std::size_t batch) {
  std::vector<std::int32_t> labels(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    labels[i] = static_cast<std::int32_t>((i * 7 + 3) % net.classes());
  }
  return labels;
}

// Bytes of the two largest layer inputs (the batch included) at `batch`.
std::size_t two_largest_layer_inputs(const Network& net, std::size_t batch) {
  std::vector<std::size_t> bytes;
  Shape s = zoo_batch(net, batch, 1).shape();
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    bytes.push_back(s.numel() * sizeof(float));
    s = net.layer(i).output_shape(s);
  }
  std::sort(bytes.rbegin(), bytes.rend());
  return bytes[0] + (bytes.size() > 1 ? bytes[1] : 0);
}

TEST(NetworkFootprint, TrainingStepHoldsTwoInputGradientsAndOneScratch) {
  for (const ZooModel& m : kZoo) {
    SCOPED_TRACE(m.name);
    auto net = build_zoo(m);
    net->zero_grads();
    net->forward_backward(zoo_batch(*net, 16, 3), zoo_labels(*net, 16));
    const Footprint f = net->footprint();
    EXPECT_GT(f.params, 0u);
    EXPECT_GT(f.activations, 0u);
    EXPECT_GT(f.input_grads, 0u);
    EXPECT_LE(f.input_grads, two_largest_layer_inputs(*net, 16));
    // Every workspace is the network's one scratch; no layer keeps its own.
    Footprint own;
    for (std::size_t i = 0; i < net->layer_count(); ++i) {
      net->layer(i).footprint(own);
    }
    EXPECT_EQ(own.scratch, 0u);
    const LayerScratch& scratch = net->arena().scratch();
    std::size_t scratch_bytes = scratch.kernel.capacity() * sizeof(float);
    for (const Tensor& t : scratch.inner) scratch_bytes += Footprint::bytes(t);
    EXPECT_EQ(f.scratch, scratch_bytes);
    if (std::string(m.name) == "alexnet_s") {
      // 19,954,048 bytes when every layer kept its own input gradient and
      // conv workspaces.
      EXPECT_LT(f.total(), 19954048u);
    }
    if (std::string(m.name) == "resnet_s") {
      // 33,031,424 bytes when residual blocks also kept their
      // pre-activation and a copy of x for identity shortcuts.
      EXPECT_LE(f.total(), 29099264u);
    }
  }
}

TEST(NetworkFootprint, InferenceKeepsNoBackwardState) {
  for (const ZooModel& m : kZoo) {
    SCOPED_TRACE(m.name);
    auto net = build_zoo(m);
    net->infer(zoo_batch(*net, 16, 3));
    const Footprint f = net->footprint();
    EXPECT_EQ(f.backward_state, 0u);
    EXPECT_EQ(f.input_grads, 0u);
    EXPECT_GT(f.activations, 0u);
    // The network's two ping-pong tensors hold every activation; no layer,
    // composite blocks included, keeps one.
    Footprint own;
    for (std::size_t i = 0; i < net->layer_count(); ++i) {
      net->layer(i).footprint(own);
    }
    EXPECT_EQ(own.activations, 0u);
    if (std::string(m.name) == "resnet_s") {
      // 14,810,752 bytes when residual blocks kept every stage output.
      EXPECT_LE(f.total(), 7405376u);
    }
  }
}

// Network::forward_backward hands the input gradients between two buffers.
// The reference runs the same layers (so the same arena and dropout
// streams) with every layer's output and dx in a fresh, zeroed tensor of
// its own.
LossResult fresh_buffer_step(Network& net, const Tensor& x,
                             std::span<const std::int32_t> labels) {
  const std::size_t n = net.layer_count();
  // The Network exposes its layers read-only; the reference drives them.
  const auto layer = [&](std::size_t i) -> Layer& {
    return const_cast<Layer&>(net.layer(i));
  };
  std::vector<Tensor> acts(n);
  const Tensor* in = &x;
  for (std::size_t i = 0; i < n; ++i) {
    layer(i).forward(*in, acts[i], /*train=*/true);
    in = &acts[i];
  }
  Tensor dlogits;
  const LossResult r =
      SoftmaxCrossEntropy().forward_backward(acts.back(), labels, dlogits);
  std::vector<Tensor> dx(n);
  const Tensor* dy = &dlogits;
  for (std::size_t i = n; i-- > 0;) {
    const Tensor& xi = i == 0 ? x : acts[i - 1];
    if (i == 0) {
      layer(i).backward_params(xi, acts[i], *dy, dx[i]);
    } else {
      layer(i).backward(xi, acts[i], *dy, dx[i]);
    }
    dy = &dx[i];
  }
  return r;
}

TEST(Network, TwoBufferBackwardMatchesFreshBuffersBitExactly) {
  for (const ZooModel& m : kZoo) {
    SCOPED_TRACE(m.name);
    auto net = build_zoo(m);
    auto ref = build_zoo(m);
    // Batch 16, then a smaller batch 5 into the grown buffers.
    for (const std::size_t batch : {16u, 5u, 16u}) {
      const Tensor x = zoo_batch(*net, batch, batch);
      const std::vector<std::int32_t> labels = zoo_labels(*net, batch);
      net->zero_grads();
      ref->zero_grads();
      const LossResult got = net->forward_backward(x, labels);
      const LossResult want = fresh_buffer_step(*ref, x, labels);
      EXPECT_EQ(0, std::memcmp(&got.loss, &want.loss, sizeof(double)));
      EXPECT_EQ(got.correct, want.correct);
      const auto g = net->arena().full_grads();
      const auto w = ref->arena().full_grads();
      ASSERT_EQ(g.size(), w.size());
      EXPECT_EQ(0, std::memcmp(g.data(), w.data(), g.size() * sizeof(float)))
          << "batch " << batch;
    }
  }
}

}  // namespace
}  // namespace ds
