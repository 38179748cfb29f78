#include <gtest/gtest.h>

#include "core/model_parallel.hpp"
#include "nn/layers.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "test_util.hpp"

namespace ds {
namespace {

struct Reference {
  std::size_t in = 10, out = 7, batch = 5;
  std::vector<float> weights;  // out×in + out biases
  Tensor x;
  Tensor dy;

  Reference() {
    Rng rng(33);
    weights.resize(out * in + out);
    for (auto& w : weights) w = static_cast<float>(rng.uniform(-1, 1));
    x = Tensor({batch, in});
    testing::fill_random(x, rng);
    dy = Tensor({batch, out});
    testing::fill_random(dy, rng);
  }

  // Single-device ground truth via the library's own FC layer.
  void run_reference(Tensor& y, Tensor& dx, std::vector<float>& grads) {
    FullyConnected fc(in, out);
    grads.assign(fc.param_count(), 0.0f);
    fc.bind(weights, grads);
    fc.forward(x, y, true);
    fc.backward(x, y, dy, dx);
  }
};

class ModelParallelTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ModelParallelTest, MatchesSingleDeviceExactlyInForward) {
  // §2.3: "model parallelism can get the same solution as the
  // single-machine case."
  const std::size_t ranks = GetParam();
  Reference ref;
  Tensor ref_y, ref_dx;
  std::vector<float> ref_grads;
  ref.run_reference(ref_y, ref_dx, ref_grads);

  Fabric fabric(ranks, fdr_infiniband());
  std::vector<Tensor> y(ranks), dx(ranks);
  std::vector<std::unique_ptr<ModelParallelFC>> shards(ranks);
  parallel_for_threads(ranks, [&](std::size_t r) {
    shards[r] =
        std::make_unique<ModelParallelFC>(fabric, r, ref.in, ref.out);
    shards[r]->load_full(ref.weights, ref.in, ref.out);
    shards[r]->forward(ref.x, y[r]);
    shards[r]->backward(ref.x, ref.dy, dx[r]);
  });

  for (std::size_t r = 0; r < ranks; ++r) {
    ASSERT_EQ(y[r].shape(), ref_y.shape());
    for (std::size_t i = 0; i < ref_y.numel(); ++i) {
      ASSERT_NEAR(y[r][i], ref_y[i], 1e-5f) << "rank " << r << " y[" << i << "]";
    }
    for (std::size_t i = 0; i < ref_dx.numel(); ++i) {
      ASSERT_NEAR(dx[r][i], ref_dx[i], 1e-4f)
          << "rank " << r << " dx[" << i << "]";
    }
  }

  // Parameter gradients: the concatenation of the shards must equal the
  // reference layer's gradient.
  for (std::size_t r = 0; r < ranks; ++r) {
    const auto g = shards[r]->local_grads();
    const std::size_t begin = shards[r]->rows_begin();
    const std::size_t local = shards[r]->rows_end() - begin;
    for (std::size_t row = 0; row < local; ++row) {
      for (std::size_t col = 0; col < ref.in; ++col) {
        ASSERT_NEAR(g[row * ref.in + col],
                    ref_grads[(begin + row) * ref.in + col], 1e-4f);
      }
    }
    for (std::size_t row = 0; row < local; ++row) {
      ASSERT_NEAR(g[local * ref.in + row],
                  ref_grads[ref.out * ref.in + begin + row], 1e-4f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ModelParallelTest,
                         ::testing::Values(1, 2, 3, 4, 7));

TEST(ModelParallel, RowPartitionCoversAllRows) {
  Fabric fabric(3, fdr_infiniband());
  ModelParallelFC a(fabric, 0, 4, 8), b(fabric, 1, 4, 8), c(fabric, 2, 4, 8);
  EXPECT_EQ(a.rows_begin(), 0u);
  EXPECT_EQ(a.rows_end(), b.rows_begin());
  EXPECT_EQ(b.rows_end(), c.rows_begin());
  EXPECT_EQ(c.rows_end(), 8u);
}

TEST(ModelParallel, RejectsMoreRanksThanRows) {
  Fabric fabric(8, fdr_infiniband());
  EXPECT_THROW(ModelParallelFC(fabric, 0, 4, 4), Error);  // 4 rows, 8 ranks
}

TEST(ModelParallel, CommScalesWithActivationsNotWeights) {
  // The §2.3 trade-off: model-parallel traffic grows with the batch, the
  // data-parallel allreduce is batch-independent but weight-proportional.
  const double mp_small = ModelParallelFC::comm_bytes_per_iteration(
      16, 1024, 1024, 4);
  const double mp_large = ModelParallelFC::comm_bytes_per_iteration(
      256, 1024, 1024, 4);
  EXPECT_NEAR(mp_large / mp_small, 16.0, 1e-6);

  const double dp_small =
      ModelParallelFC::data_parallel_comm_bytes(1024, 1024, 4);
  EXPECT_DOUBLE_EQ(dp_small,
                   ModelParallelFC::data_parallel_comm_bytes(1024, 1024, 4));

  // Paper's example regime (2048×1024×1024): at small batch, model
  // parallelism moves less data; at large batch, data parallelism wins.
  const double mp_b16 =
      ModelParallelFC::comm_bytes_per_iteration(16, 1024, 1024, 4);
  const double dp = ModelParallelFC::data_parallel_comm_bytes(1024, 1024, 4);
  EXPECT_LT(mp_b16, dp);
  const double mp_b2048 =
      ModelParallelFC::comm_bytes_per_iteration(2048, 1024, 1024, 4);
  EXPECT_GT(mp_b2048, dp);
}

TEST(ModelParallel, SingleRankHasNoComm) {
  EXPECT_DOUBLE_EQ(
      ModelParallelFC::comm_bytes_per_iteration(64, 128, 128, 1), 0.0);
  EXPECT_DOUBLE_EQ(ModelParallelFC::data_parallel_comm_bytes(128, 128, 1),
                   0.0);
}

}  // namespace
}  // namespace ds
