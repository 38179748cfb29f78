// Batched-forward parity: coalescing B requests into ONE infer() call must
// be bitwise-identical to B separate batch-1 infer() calls, for every
// ConvAlgo the dispatch heuristic can pick. This is the correctness
// contract behind the serving batcher — dynamic batching must be invisible
// to the caller, down to the last ulp.
#include <cstring>
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

void expect_batch_parity(Network& net, const Dataset& pool, std::size_t B) {
  const std::size_t numel = pool.sample_numel();

  // One coalesced batch of B distinct samples...
  const Shape sample_shape = pool.sample_shape();  // keep the temporary alive
  std::vector<std::size_t> dims;
  dims.push_back(B);
  for (const std::size_t d : sample_shape.dims()) dims.push_back(d);
  Tensor batch{Shape(dims)};
  for (std::size_t b = 0; b < B; ++b) {
    std::memcpy(batch.data() + b * numel, pool.images.data() + b * numel,
                numel * sizeof(float));
  }
  const Tensor& out = net.infer(batch);
  ASSERT_EQ(out.dim(0), B);
  const std::size_t classes = out.numel() / B;
  std::vector<float> batched(out.data(), out.data() + out.numel());

  // ...vs B batch-1 calls over the same samples.
  std::vector<std::size_t> one_dims = dims;
  one_dims[0] = 1;
  Tensor one{Shape(one_dims)};
  for (std::size_t b = 0; b < B; ++b) {
    std::memcpy(one.data(), pool.images.data() + b * numel,
                numel * sizeof(float));
    const Tensor& row = net.infer(one);
    ASSERT_EQ(row.numel(), classes);
    for (std::size_t c = 0; c < classes; ++c) {
      ASSERT_EQ(row.data()[c], batched[b * classes + c])
          << "sample " << b << " logit " << c << " differs";
    }
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

}  // namespace
}  // namespace ds
