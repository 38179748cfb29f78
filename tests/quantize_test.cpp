#include <gtest/gtest.h>

#include "comm/quantize.hpp"
#include "core/sync_algorithms.hpp"
#include "data/dataset.hpp"
#include "nn/models.hpp"
#include "support/rng.hpp"

namespace ds {
namespace {

// -------------------------------- Int8 ---------------------------------------

TEST(Int8Codec, RoundTripWithinOneStep) {
  Rng rng(1);
  std::vector<float> values(1000);
  for (auto& v : values) v = static_cast<float>(rng.uniform(-3.0, 5.0));
  Int8Codec::Blob blob;
  Int8Codec::encode(values, blob);
  std::vector<float> decoded(values.size());
  Int8Codec::decode(blob, decoded);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(decoded[i], values[i], blob.step * 0.5f + 1e-6f);
  }
}

TEST(Int8Codec, ExtremesAreExact) {
  std::vector<float> values{-2.0f, 0.5f, 7.0f};
  Int8Codec::Blob blob;
  Int8Codec::encode(values, blob);
  std::vector<float> decoded(3);
  Int8Codec::decode(blob, decoded);
  EXPECT_NEAR(decoded[0], -2.0f, 1e-6f);
  EXPECT_NEAR(decoded[2], 7.0f, 1e-5f);
}

TEST(Int8Codec, ConstantInputIsLossless) {
  std::vector<float> values(17, 3.25f);
  Int8Codec::Blob blob;
  Int8Codec::encode(values, blob);
  std::vector<float> decoded(values.size());
  Int8Codec::decode(blob, decoded);
  for (const float v : decoded) EXPECT_EQ(v, 3.25f);
}

TEST(Int8Codec, WireBytesAreQuarter) {
  EXPECT_EQ(Int8Codec::wire_bytes(1000), 1000u + 8u);
  EXPECT_DOUBLE_EQ(compression_bytes_factor(GradCompression::kInt8), 0.25);
}

TEST(Int8Codec, DecodeSizeMismatchRejected) {
  std::vector<float> values{1.0f, 2.0f};
  Int8Codec::Blob blob;
  Int8Codec::encode(values, blob);
  std::vector<float> wrong(3);
  EXPECT_THROW(Int8Codec::decode(blob, wrong), Error);
}

// -------------------------------- OneBit -------------------------------------

TEST(OneBitCodec, SignsAndScalesPreserved) {
  std::vector<float> values{1.0f, 3.0f, -2.0f, -4.0f};
  OneBitCodec codec(values.size());
  OneBitCodec::Blob blob;
  codec.encode(values, blob);
  EXPECT_FLOAT_EQ(blob.positive_scale, 2.0f);   // mean(1,3)
  EXPECT_FLOAT_EQ(blob.negative_scale, 3.0f);   // mean(2,4)
  std::vector<float> decoded(values.size());
  OneBitCodec::decode(blob, decoded);
  EXPECT_FLOAT_EQ(decoded[0], 2.0f);
  EXPECT_FLOAT_EQ(decoded[1], 2.0f);
  EXPECT_FLOAT_EQ(decoded[2], -3.0f);
  EXPECT_FLOAT_EQ(decoded[3], -3.0f);
}

TEST(OneBitCodec, ErrorFeedbackKeepsTheResidual) {
  std::vector<float> values{1.0f, 3.0f};
  OneBitCodec codec(2);
  OneBitCodec::Blob blob;
  codec.encode(values, blob);
  // sent 2.0 for both; residual = corrected − sent = (−1, +1).
  EXPECT_FLOAT_EQ(codec.residual()[0], -1.0f);
  EXPECT_FLOAT_EQ(codec.residual()[1], 1.0f);
}

TEST(OneBitCodec, ResidualCarriesIntoNextEncode) {
  // A persistent small negative component must eventually be transmitted
  // thanks to error feedback, even though each step's sign is positive.
  OneBitCodec codec(2);
  OneBitCodec::Blob blob;
  std::vector<float> decoded(2);
  double sent_sum_small = 0.0;
  for (int step = 0; step < 50; ++step) {
    std::vector<float> grad{1.0f, 0.1f};  // second entry much smaller
    codec.encode(grad, blob);
    OneBitCodec::decode(blob, decoded);
    sent_sum_small += decoded[1];
  }
  // Over 50 steps the transmitted mass of entry 1 approximates 50×0.1.
  EXPECT_NEAR(sent_sum_small, 5.0, 1.5);
}

TEST(OneBitCodec, UnbiasedOverTimeWithRandomGradients) {
  // Error feedback ⇒ cumulative(sent) tracks cumulative(true) per element.
  const std::size_t n = 64;
  Rng rng(9);
  OneBitCodec codec(n);
  OneBitCodec::Blob blob;
  std::vector<double> true_sum(n, 0.0), sent_sum(n, 0.0);
  std::vector<float> grad(n), decoded(n);
  for (int step = 0; step < 400; ++step) {
    for (std::size_t i = 0; i < n; ++i) {
      grad[i] = static_cast<float>(rng.gaussian(0.05, 0.3));
      true_sum[i] += grad[i];
    }
    codec.encode(grad, blob);
    OneBitCodec::decode(blob, decoded);
    for (std::size_t i = 0; i < n; ++i) sent_sum[i] += decoded[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    // Difference equals the current residual, which stays bounded.
    EXPECT_NEAR(sent_sum[i], true_sum[i], 2.0) << "element " << i;
  }
}

TEST(OneBitCodec, WireBytesAre32xSmaller) {
  EXPECT_EQ(OneBitCodec::wire_bytes(128), 16u + 8u);
  EXPECT_DOUBLE_EQ(compression_bytes_factor(GradCompression::kOneBit),
                   1.0 / 32.0);
}

TEST(OneBitCodec, ResetResidualClears) {
  OneBitCodec codec(2);
  OneBitCodec::Blob blob;
  std::vector<float> grad{1.0f, 3.0f};
  codec.encode(grad, blob);
  codec.reset_residual();
  EXPECT_EQ(codec.residual()[0], 0.0f);
  EXPECT_EQ(codec.residual()[1], 0.0f);
}

TEST(OneBitCodec, SizeMismatchRejected) {
  OneBitCodec codec(4);
  OneBitCodec::Blob blob;
  std::vector<float> wrong(3);
  EXPECT_THROW(codec.encode(wrong, blob), Error);
}

// ---------------------------- End-to-end training -----------------------------

struct QuantFixture {
  TrainTest data;
  AlgoContext ctx;
  GpuSystem hw{GpuSystemConfig{}, paper_lenet(), 8.0 * 8.0 * 4.0};

  QuantFixture() {
    SyntheticSpec spec;
    spec.classes = 4;
    spec.channels = 1;
    spec.height = 8;
    spec.width = 8;
    spec.train_count = 512;
    spec.test_count = 128;
    spec.noise = 0.9;
    spec.seed = 99;
    data = make_synthetic(spec);
    const auto stats = normalize(data.train);
    normalize_with(data.test, stats.first, stats.second);
    ctx.factory = [] {
      Rng rng(17);
      return make_tiny_mlp(rng);
    };
    ctx.train = &data.train;
    ctx.test = &data.test;
    ctx.config.workers = 3;
    ctx.config.iterations = 150;
    ctx.config.batch_size = 16;
    ctx.config.eval_every = 50;
    ctx.config.eval_samples = 128;
    ctx.config.learning_rate = 0.05f;
  }
};

TEST(QuantizedTraining, Int8ConvergesAndCutsCommTime) {
  QuantFixture f;
  const RunResult fp32 = run_sync_sgd(f.ctx, f.hw);
  f.ctx.config.compression = GradCompression::kInt8;
  const RunResult int8 = run_sync_sgd(f.ctx, f.hw);
  EXPECT_GT(int8.final_accuracy, 0.6);
  EXPECT_LT(int8.ledger.seconds(Phase::kGpuGpuParamComm),
            fp32.ledger.seconds(Phase::kGpuGpuParamComm));
}

TEST(QuantizedTraining, OneBitWithErrorFeedbackConverges) {
  QuantFixture f;
  f.ctx.config.compression = GradCompression::kOneBit;
  const RunResult r = run_sync_sgd(f.ctx, f.hw);
  EXPECT_GT(r.final_accuracy, 0.6)
      << "1-bit SGD with error feedback must still learn";
}

TEST(QuantizedTraining, MethodNamesCarryCodec) {
  QuantFixture f;
  f.ctx.config.iterations = 4;
  f.ctx.config.compression = GradCompression::kOneBit;
  EXPECT_NE(run_sync_sgd(f.ctx, f.hw).method.find("1-bit"),
            std::string::npos);
}

}  // namespace
}  // namespace ds
