// Batched-forward parity: coalescing B requests into ONE infer() call must
// be bitwise-identical to B separate batch-1 infer() calls, for every
// ConvAlgo the dispatch heuristic can pick. This is the correctness
// contract behind the serving batcher — dynamic batching must be invisible
// to the caller, down to the last ulp. The zoo tests also pin the lean
// inference path's buffer reuse: one network runs a mixed sequence of
// batch sizes, and a training step taken afterwards is bitwise the step of
// a network that never ran infer().
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.hpp"
#include "nn/models.hpp"
#include "tensor/gemm.hpp"

namespace ds {
namespace {

// Pin the thread-local conv dispatch for a scope (same idiom as
// conv_algo_test.cpp).
struct AlgoGuard {
  explicit AlgoGuard(ConvAlgo a) { kernel_config().conv_algo = a; }
  ~AlgoGuard() { kernel_config().conv_algo = ConvAlgo::kAuto; }
};

// B consecutive pool samples starting at `first`, as one NCHW batch.
Tensor pool_batch(const Dataset& pool, std::size_t first, std::size_t B) {
  const Shape sample_shape = pool.sample_shape();  // keep the temporary alive
  std::vector<std::size_t> dims{B};
  dims.insert(dims.end(), sample_shape.dims().begin(),
              sample_shape.dims().end());
  Tensor batch{Shape(dims)};
  const std::size_t numel = pool.sample_numel();
  std::memcpy(batch.data(), pool.images.data() + first * numel,
              B * numel * sizeof(float));
  return batch;
}

void expect_batch_parity(Network& net, const Dataset& pool, std::size_t B) {
  // One coalesced batch of B distinct samples...
  const Tensor& out = net.infer(pool_batch(pool, 0, B));
  ASSERT_EQ(out.dim(0), B);
  const std::size_t classes = out.numel() / B;
  std::vector<float> batched(out.data(), out.data() + out.numel());

  // ...vs B batch-1 calls over the same samples.
  for (std::size_t b = 0; b < B; ++b) {
    const Tensor& row = net.infer(pool_batch(pool, b, 1));
    ASSERT_EQ(row.numel(), classes);
    for (std::size_t c = 0; c < classes; ++c) {
      ASSERT_EQ(row.data()[c], batched[b * classes + c])
          << "sample " << b << " logit " << c << " differs";
    }
  }
}

using ModelFactory = std::function<std::unique_ptr<Network>(Rng&)>;

// One network infers batches of 8, 1, 3, 8 and 2 samples in turn; every
// output row must equal a fresh network's batch-1 forward bit for bit.
// Then both that network and one that never ran infer() take a training
// step on the same batch: the loss and every gradient must match bit for
// bit, so the inference path leaves no state training would misread.
void expect_sequence_parity(const ModelFactory& make, const Dataset& pool) {
  Rng rng_a(31), rng_b(31), rng_c(31);
  const auto net = make(rng_a);
  const auto oracle = make(rng_b);
  std::size_t first = 0;
  for (const std::size_t B : {8u, 1u, 3u, 8u, 2u}) {
    const Tensor& out = net->infer(pool_batch(pool, first, B));
    ASSERT_EQ(out.dim(0), B);
    const std::size_t classes = out.numel() / B;
    const std::vector<float> batched(out.data(), out.data() + out.numel());
    for (std::size_t b = 0; b < B; ++b) {
      const Tensor& row = oracle->infer(pool_batch(pool, first + b, 1));
      ASSERT_EQ(row.numel(), classes);
      for (std::size_t c = 0; c < classes; ++c) {
        ASSERT_EQ(row.data()[c], batched[b * classes + c])
            << "batch of " << B << ", sample " << first + b << " logit "
            << c << " differs";
      }
    }
    first = (first + B) % (pool.size() - 8);
  }

  const auto untouched = make(rng_c);
  const Tensor batch = pool_batch(pool, 0, 4);
  const std::span<const std::int32_t> labels(pool.labels.data(), 4);
  net->zero_grads();
  untouched->zero_grads();
  const LossResult a = net->forward_backward(batch, labels);
  const LossResult b = untouched->forward_backward(batch, labels);
  ASSERT_EQ(a.loss, b.loss);
  const std::span<const float> ga = std::as_const(*net).arena().full_grads();
  const std::span<const float> gb =
      std::as_const(*untouched).arena().full_grads();
  ASSERT_EQ(ga.size(), gb.size());
  for (std::size_t i = 0; i < ga.size(); ++i) {
    ASSERT_EQ(ga[i], gb[i]) << "gradient " << i << " differs";
  }
}

TEST(ServeParity, LenetIm2colBatchedMatchesSingles) {
  AlgoGuard guard(ConvAlgo::kIm2col);
  const TrainTest data = mnist_like(/*seed=*/5, /*train=*/16, /*test=*/8);
  Rng rng(21);
  const auto net = make_lenet_s(rng);
  expect_batch_parity(*net, data.train, 5);
}

// alexnet_s's 3×3 s1 p1 convs are direct-supported shapes, so the forced
// pin below exercises the real kernels (LeNet's 5×5 convs would silently
// fall back to im2col — see resolve_conv_algo).
TEST(ServeParity, AlexnetDirectBatchedMatchesSingles) {
  AlgoGuard guard(ConvAlgo::kDirect);
  const TrainTest data = cifar_like(/*seed=*/5, /*train=*/16, /*test=*/8);
  Rng rng(22);
  const auto net = make_alexnet_s(rng);
  expect_batch_parity(*net, data.train, 5);
}

// The heuristic path the server actually runs (kAuto picks im2col or direct
// per layer shape): parity must hold for whatever it chooses, on the conv
// stack with dropout (off in eval mode) and LRN.
TEST(ServeParity, AlexnetAutoBatchedMatchesSingles) {
  AlgoGuard guard(ConvAlgo::kAuto);
  const TrainTest data = cifar_like(/*seed=*/5, /*train=*/16, /*test=*/8);
  Rng rng(22);
  const auto net = make_alexnet_s(rng);
  expect_batch_parity(*net, data.train, 5);
}

// The model zoo on the heuristic path the server runs: im2col, direct,
// 1×1 pointwise, inception, residual, LRN, dropout and pooling layers.
TEST(ServeParity, ZooMixedBatchSequenceMatchesSinglesAndKeepsTraining) {
  AlgoGuard guard(ConvAlgo::kAuto);
  const TrainTest mnist = mnist_like(/*seed=*/5, /*train=*/24, /*test=*/8);
  const TrainTest cifar = cifar_like(/*seed=*/5, /*train=*/24, /*test=*/8);
  const struct {
    const char* name;
    ModelFactory make;
    const Dataset* pool;
  } zoo[] = {
      {"lenet_s", [](Rng& r) { return make_lenet_s(r); }, &mnist.train},
      {"alexnet_s", [](Rng& r) { return make_alexnet_s(r); }, &cifar.train},
      {"vgg_s", [](Rng& r) { return make_vgg_s(r); }, &cifar.train},
      {"googlenet_s", [](Rng& r) { return make_googlenet_s(r); },
       &cifar.train},
      {"resnet_s", [](Rng& r) { return make_resnet_s(r); }, &cifar.train},
  };
  for (const auto& model : zoo) {
    SCOPED_TRACE(model.name);
    expect_sequence_parity(model.make, *model.pool);
  }
}

}  // namespace
}  // namespace ds
