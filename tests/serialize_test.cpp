#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>

#include <gtest/gtest.h>

#include "data/dataset.hpp"
#include "nn/models.hpp"
#include "nn/serialize.hpp"

namespace ds {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(Serialize, RoundTripPreservesEveryWeight) {
  Rng rng(3);
  const auto a = make_lenet_s(rng);
  const std::string path = temp_path("lenet.dscp");
  save_checkpoint(*a, path);

  Rng rng2(99);  // different init — must be fully overwritten
  const auto b = make_lenet_s(rng2);
  load_checkpoint(*b, path);

  const auto pa = a->arena().full_params();
  const auto pb = b->arena().full_params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) ASSERT_EQ(pa[i], pb[i]);
  std::remove(path.c_str());
}

TEST(Serialize, CrossPackModeRoundTrip) {
  Rng rng(3);
  const auto packed = make_tiny_mlp(rng, PackMode::kPacked);
  const std::string path = temp_path("mlp.dscp");
  save_checkpoint(*packed, path);

  Rng rng2(4);
  const auto layered = make_tiny_mlp(rng2, PackMode::kPerLayer);
  load_checkpoint(*layered, path);
  for (std::size_t l = 0; l < packed->arena().layer_count(); ++l) {
    const auto pa = packed->arena().layer_params(l);
    const auto pb = layered->arena().layer_params(l);
    for (std::size_t i = 0; i < pa.size(); ++i) ASSERT_EQ(pa[i], pb[i]);
  }
  std::remove(path.c_str());
}

TEST(Serialize, RejectsDifferentArchitecture) {
  Rng rng(3);
  const auto lenet = make_lenet_s(rng);
  const std::string path = temp_path("wrongarch.dscp");
  save_checkpoint(*lenet, path);

  Rng rng2(3);
  auto mlp = make_tiny_mlp(rng2);
  EXPECT_THROW(load_checkpoint(*mlp, path), Error);
  std::remove(path.c_str());
}

// The serving contract (ISSUE: serve replicas restore checkpoints): a
// TRAINED network — weights moved off their init by real SGD steps — must
// round-trip so that the restored replica's forward outputs are bitwise
// identical to the original's, not merely close.
TEST(Serialize, TrainedNetworkRoundTripForwardBitwise) {
  const TrainTest data = cifar_like(/*seed=*/7, /*train=*/64, /*test=*/16);
  const std::size_t B = 8;
  const std::size_t numel = data.train.sample_numel();
  Tensor batch({B, 3, 32, 32});
  std::memcpy(batch.data(), data.train.images.data(),
              B * numel * sizeof(float));
  const std::span<const std::int32_t> labels(data.train.labels.data(), B);

  Rng rng(11);
  const auto trained = make_alexnet_s(rng);
  const float lr = 0.01f;
  for (int step = 0; step < 3; ++step) {
    trained->zero_grads();
    trained->forward_backward(batch, labels);
    const auto params = trained->arena().full_params();
    const auto grads = trained->arena().full_grads();
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i] -= lr * grads[i];
    }
  }

  const std::string path = temp_path("alexnet_trained.dscp");
  save_checkpoint(*trained, path);

  Rng rng2(4242);  // deliberately different init, fully overwritten
  const auto restored = make_alexnet_s(rng2);
  load_checkpoint(*restored, path);

  const auto pa = trained->arena().full_params();
  const auto pb = restored->arena().full_params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) ASSERT_EQ(pa[i], pb[i]);

  const Tensor& out_a = trained->infer(batch);
  const Tensor& out_b = restored->infer(batch);
  ASSERT_EQ(out_a.numel(), out_b.numel());
  for (std::size_t i = 0; i < out_a.numel(); ++i) {
    ASSERT_EQ(out_a.data()[i], out_b.data()[i]) << "logit " << i;
  }
  std::remove(path.c_str());
}

TEST(Serialize, RejectsMissingFile) {
  Rng rng(3);
  auto net = make_tiny_mlp(rng);
  EXPECT_THROW(load_checkpoint(*net, temp_path("does-not-exist.dscp")), Error);
}

TEST(Serialize, RejectsGarbageMagic) {
  const std::string path = temp_path("garbage.dscp");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a checkpoint at all, not even close";
  }
  Rng rng(3);
  auto net = make_tiny_mlp(rng);
  EXPECT_THROW(load_checkpoint(*net, path), Error);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsTruncatedFile) {
  Rng rng(3);
  const auto net = make_tiny_mlp(rng);
  const std::string path = temp_path("trunc.dscp");
  save_checkpoint(*net, path);
  // Chop off the tail of the parameter data.
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in), {});
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() / 2));
  }
  Rng rng2(5);
  auto victim = make_tiny_mlp(rng2);
  EXPECT_THROW(load_checkpoint(*victim, path), Error);
  std::remove(path.c_str());
}

// Crash consistency: a save that cannot complete must leave the previous
// checkpoint exactly as it was. A directory squatting on the temp path makes
// the save fail before a single byte reaches `path`.
TEST(Serialize, FailedSaveLeavesPreviousCheckpointIntact) {
  Rng rng(3);
  const auto old_net = make_lenet_s(rng);
  const std::string path = temp_path("blocked.dscp");
  save_checkpoint(*old_net, path);

  const std::string tmp = path + ".tmp";
  std::filesystem::create_directory(tmp);
  Rng rng2(8);
  const auto new_net = make_lenet_s(rng2);
  EXPECT_THROW(save_checkpoint(*new_net, path), Error);
  std::filesystem::remove(tmp);

  Rng rng3(99);
  const auto restored = make_lenet_s(rng3);
  load_checkpoint(*restored, path);
  const auto pa = old_net->arena().full_params();
  const auto pb = restored->arena().full_params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) ASSERT_EQ(pa[i], pb[i]);
  std::remove(path.c_str());
}

TEST(Serialize, GoodSaveLeavesNoTempFile) {
  Rng rng(3);
  const auto net = make_tiny_mlp(rng);
  const std::string path = temp_path("notemp.dscp");
  save_checkpoint(*net, path);
  save_checkpoint(*net, path);  // the second save replaces an existing file
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(Serialize, RejectsTrailingBytes) {
  Rng rng(3);
  const auto net = make_tiny_mlp(rng);
  const std::string path = temp_path("trailing.dscp");
  save_checkpoint(*net, path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.put('\0');
  }
  Rng rng2(5);
  auto victim = make_tiny_mlp(rng2);
  EXPECT_THROW(load_checkpoint(*victim, path), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ds
