#include <fstream>

#include <gtest/gtest.h>

#include "core/solver_config.hpp"

namespace ds {
namespace {

// -------------------------------- Parsing -----------------------------------

TEST(SolverParse, FullConfigRoundTrip) {
  const SolverSpec spec = parse_solver(R"(
    # a comment
    method: hogwild_easgd
    net: alexnet_s
    dataset: cifar_like
    workers: 8
    max_iter: 500
    batch_size: 16
    base_lr: 0.02
    momentum: 0.95
    rho: 1.5
    test_interval: 50
    test_iter: 128
    seed: 9
    layout: per_layer
    reduce_algo: linear
    train_count: 1024
    test_count: 256
    data_seed: 5
  )");
  EXPECT_EQ(spec.method, "hogwild_easgd");
  EXPECT_EQ(spec.net, "alexnet_s");
  EXPECT_EQ(spec.dataset, "cifar_like");
  EXPECT_EQ(spec.train.workers, 8u);
  EXPECT_EQ(spec.train.iterations, 500u);
  EXPECT_EQ(spec.train.batch_size, 16u);
  EXPECT_FLOAT_EQ(spec.train.learning_rate, 0.02f);
  EXPECT_FLOAT_EQ(spec.train.momentum, 0.95f);
  EXPECT_FLOAT_EQ(spec.train.rho, 1.5f);
  EXPECT_EQ(spec.train.eval_every, 50u);
  EXPECT_EQ(spec.train.eval_samples, 128u);
  EXPECT_EQ(spec.train.seed, 9u);
  EXPECT_EQ(spec.train.layout, MessageLayout::kPerLayer);
  EXPECT_EQ(spec.train.reduce_algo, CollectiveAlgo::kLinear);
  EXPECT_EQ(spec.train_count, 1024u);
  EXPECT_EQ(spec.test_count, 256u);
  EXPECT_EQ(spec.data_seed, 5u);
}

TEST(SolverParse, LrScheduleKeys) {
  const SolverSpec spec = parse_solver(R"(
    lr_policy: step
    gamma: 0.5
    stepsize: 200
    warmup_iters: 20
    warmup_start: 0.25
  )");
  EXPECT_EQ(spec.train.lr_schedule.policy, LrPolicy::kStep);
  EXPECT_DOUBLE_EQ(spec.train.lr_schedule.gamma, 0.5);
  EXPECT_EQ(spec.train.lr_schedule.step_size, 200u);
  EXPECT_EQ(spec.train.lr_schedule.warmup_iters, 20u);
  EXPECT_DOUBLE_EQ(spec.train.lr_schedule.warmup_start, 0.25);
  // The composed schedule is reachable through TrainConfig::lr_at.
  EXPECT_FLOAT_EQ(spec.train.lr_at(201), spec.train.learning_rate * 0.5f);
}

TEST(SolverParse, BadLrPolicyRejectedWithLineNumber) {
  try {
    parse_solver("base_lr: 0.1\nlr_policy: cyclical\n");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(SolverParse, ZeroTestIntervalRejectedWithLineNumber) {
  try {
    parse_solver("workers: 2\ntest_interval: 0\n");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_interval"), std::string::npos);
  }
}

TEST(SolverParse, ZeroBatchSizeAndTestIterRejectedWithLineNumber) {
  for (const char* key : {"batch_size", "test_iter"}) {
    try {
      parse_solver(std::string("workers: 2\n") + key + ": 0\n");
      FAIL() << "expected throw for " << key;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("line 2: ") + key +
                                           " must be >= 1"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SolverParse, EmptyTextGivesDefaults) {
  const SolverSpec spec = parse_solver("");
  EXPECT_EQ(spec.method, "sync_easgd3");
  EXPECT_EQ(spec.net, "lenet_s");
  EXPECT_EQ(spec.train.workers, 4u);
}

TEST(SolverParse, CommentsAndBlankLinesIgnored) {
  const SolverSpec spec = parse_solver(
      "# only comments\n\n   \n  workers: 2  # trailing comment\n");
  EXPECT_EQ(spec.train.workers, 2u);
}

TEST(SolverParse, UnknownKeyRejectedWithLineNumber) {
  try {
    parse_solver("workers: 4\nbogus_key: 1\n");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bogus_key"), std::string::npos);
  }
}

TEST(SolverParse, UnknownMethodRejected) {
  EXPECT_THROW(parse_solver("method: warp_drive\n"), Error);
}

TEST(SolverParse, MalformedLineRejected) {
  EXPECT_THROW(parse_solver("this line has no colon\n"), Error);
}

TEST(SolverParse, BadNumberRejected) {
  EXPECT_THROW(parse_solver("base_lr: fast\n"), Error);
  EXPECT_THROW(parse_solver("workers: 3.5\n"), Error);
  EXPECT_THROW(parse_solver("max_iter: 10abc\n"), Error);
}

TEST(SolverParse, BadEnumValuesRejected) {
  EXPECT_THROW(parse_solver("layout: zigzag\n"), Error);
  EXPECT_THROW(parse_solver("reduce_algo: quantum\n"), Error);
}

TEST(SolverParse, EveryAdvertisedMethodParses) {
  for (const std::string& m : solver_methods()) {
    const SolverSpec spec = parse_solver("method: " + m + "\n");
    EXPECT_EQ(spec.method, m);
  }
}

// ------------------------------ File loading ---------------------------------

TEST(SolverFile, LoadsFromDisk) {
  const std::string path =
      std::string(::testing::TempDir()) + "/solver_test.prototxt";
  {
    std::ofstream out(path);
    out << "method: sync_sgd\nworkers: 3\n";
  }
  const SolverSpec spec = load_solver_file(path);
  EXPECT_EQ(spec.method, "sync_sgd");
  EXPECT_EQ(spec.train.workers, 3u);
  std::remove(path.c_str());
}

TEST(SolverFile, MissingFileRejected) {
  EXPECT_THROW(load_solver_file("/nonexistent/solver.prototxt"), Error);
}

// ------------------------------- Factories -----------------------------------

TEST(SolverFactory, BuildsEveryModel) {
  for (const char* net :
       {"lenet_s", "alexnet_s", "vgg_s", "googlenet_s", "tiny_mlp"}) {
    SolverSpec spec;
    spec.net = net;
    const NetworkFactory factory = make_factory(spec);
    const auto model = factory();
    EXPECT_TRUE(model->finalized()) << net;
    EXPECT_GT(model->param_count(), 0u) << net;
  }
}

TEST(SolverFactory, UnknownModelRejected) {
  SolverSpec spec;
  spec.net = "resnet152";  // not in this zoo
  EXPECT_THROW(make_factory(spec), Error);
}

TEST(SolverFactory, FactoryIsDeterministic) {
  SolverSpec spec;
  const NetworkFactory factory = make_factory(spec);
  const auto a = factory();
  const auto b = factory();
  const auto pa = a->arena().full_params();
  const auto pb = b->arena().full_params();
  for (std::size_t i = 0; i < pa.size(); ++i) ASSERT_EQ(pa[i], pb[i]);
}

TEST(SolverDataset, BuildsEveryPreset) {
  for (const char* name : {"mnist_like", "cifar_like", "imagenet_like"}) {
    SolverSpec spec;
    spec.dataset = name;
    spec.train_count = 64;
    spec.test_count = 16;
    const TrainTest data = make_dataset(spec);
    EXPECT_EQ(data.train.size(), 64u) << name;
  }
}

TEST(SolverDataset, UnknownDatasetRejected) {
  SolverSpec spec;
  spec.dataset = "imagenet22k";
  EXPECT_THROW(make_dataset(spec), Error);
}

// ------------------------------- End to end ----------------------------------

TEST(SolverRun, TrainsFromTextConfig) {
  const SolverSpec spec = parse_solver(R"(
    method: sync_easgd3
    net: tiny_mlp
    dataset: mnist_like
    workers: 2
    max_iter: 20
    batch_size: 8
    base_lr: 0.05
    rho: 2.0
    test_interval: 10
    test_iter: 64
    train_count: 128
    test_count: 64
  )");
  // tiny_mlp takes 1×8×8 input; mnist_like is 1×28×28 — mismatch must be
  // caught by the network's shape checks, so use a compatible pair instead.
  SolverSpec ok = spec;
  ok.net = "lenet_s";
  const RunResult r = run_solver(ok);
  EXPECT_EQ(r.iterations, 20u);
  EXPECT_FALSE(r.trace.empty());
}

TEST(SolverRun, EveryMethodRunsOnTinySetup) {
  for (const std::string& m : solver_methods()) {
    SolverSpec spec;
    spec.method = m;
    spec.net = "lenet_s";
    spec.dataset = "mnist_like";
    spec.train_count = 128;
    spec.test_count = 32;
    spec.train.workers = 2;
    spec.train.iterations = 6;
    spec.train.batch_size = 8;
    spec.train.eval_every = 3;
    spec.train.eval_samples = 32;
    const RunResult r = run_solver(spec);
    EXPECT_FALSE(r.trace.empty()) << m;
    EXPECT_GT(r.total_seconds, 0.0) << m;
  }
}

}  // namespace
}  // namespace ds
