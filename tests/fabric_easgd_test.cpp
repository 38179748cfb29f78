#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/fabric_algorithms.hpp"
#include "core/knl_algorithms.hpp"
#include "data/dataset.hpp"
#include "nn/models.hpp"

namespace ds {
namespace {

struct Fixture {
  TrainTest data;
  AlgoContext ctx;

  Fixture() {
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
    ctx.config.workers = 4;
    ctx.config.iterations = 100;
    ctx.config.batch_size = 16;
    ctx.config.eval_every = 25;
    ctx.config.eval_samples = 128;
    ctx.config.learning_rate = 0.05f;
    ctx.config.rho = 0.9f / (4.0f * 0.05f);
  }
};

TEST(FabricEasgd, ConvergesOverTheFabric) {
  Fixture f;
  const RunResult r = run_fabric_easgd(f.ctx, FabricClusterConfig{});
  ASSERT_FALSE(r.trace.empty());
  EXPECT_GT(r.final_accuracy, 0.6);
  EXPECT_GT(r.total_seconds, 0.0);
}

TEST(FabricEasgd, BitDeterministicDespiteThreads) {
  // Blocking matched receives make the binomial reduction order a pure
  // function of the tree shape — two runs must agree exactly.
  Fixture f;
  const RunResult a = run_fabric_easgd(f.ctx, FabricClusterConfig{});
  const RunResult b = run_fabric_easgd(f.ctx, FabricClusterConfig{});
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].loss, b.trace[i].loss);
    EXPECT_EQ(a.trace[i].accuracy, b.trace[i].accuracy);
    EXPECT_EQ(a.trace[i].vtime, b.trace[i].vtime);
  }
}

TEST(FabricEasgd, MatchesScheduleLevelImplementationInAccuracy) {
  // The SPMD run and the single-threaded schedule (knl_algorithms) execute
  // the same algorithm; only float summation order differs, so traces must
  // agree closely (not bitwise).
  Fixture f;
  const RunResult spmd = run_fabric_easgd(f.ctx, FabricClusterConfig{});
  ClusterTiming timing;
  timing.model = paper_lenet();
  const RunResult sched = run_cluster_sync_easgd(f.ctx, timing);
  ASSERT_EQ(spmd.trace.size(), sched.trace.size());
  for (std::size_t i = 0; i < spmd.trace.size(); ++i) {
    EXPECT_NEAR(spmd.trace[i].accuracy, sched.trace[i].accuracy, 0.08)
        << "probe " << i;
    EXPECT_NEAR(spmd.trace[i].loss, sched.trace[i].loss, 0.15) << "probe " << i;
  }
}

TEST(FabricEasgd, VirtualTimeGrowsLogarithmicallyWithRanks) {
  // The fabric executes a real binomial tree, so doubling ranks adds one
  // round of hops, not P hops.
  Fixture f;
  f.ctx.config.iterations = 10;
  f.ctx.config.eval_every = 10;
  auto total_for = [&](std::size_t ranks) {
    AlgoContext ctx = f.ctx;
    ctx.config.workers = ranks;
    return run_fabric_easgd(ctx, FabricClusterConfig{}).total_seconds;
  };
  const double t2 = total_for(2);
  const double t4 = total_for(4);
  const double t8 = total_for(8);
  const double step1 = t4 - t2;  // one extra tree round
  const double step2 = t8 - t4;  // one more round
  EXPECT_GT(step1, 0.0);
  EXPECT_LT(step2, 3.0 * step1) << "growth must be ~per-round, not linear";
}

TEST(FabricAsyncEasgd, ConvergesThroughTheParameterServer) {
  Fixture f;
  f.ctx.config.iterations = 120;
  f.ctx.config.eval_every = 30;
  const RunResult r = run_fabric_async_easgd(f.ctx, FabricClusterConfig{});
  ASSERT_FALSE(r.trace.empty());
  EXPECT_GT(r.final_accuracy, 0.6);
  EXPECT_GT(r.total_seconds, 0.0);
}

TEST(FabricAsyncEasgd, TraceCoversTheInteractionBudget) {
  Fixture f;
  f.ctx.config.iterations = 90;
  f.ctx.config.eval_every = 30;
  const RunResult r = run_fabric_async_easgd(f.ctx, FabricClusterConfig{});
  ASSERT_GE(r.trace.size(), 3u);
  EXPECT_EQ(r.trace.back().iteration, 90u);
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_GE(r.trace[i].vtime, r.trace[i - 1].vtime);
  }
}

TEST(FabricAsyncEasgd, ServerSerialisesUnderLoad) {
  // With many workers the FCFS server becomes the bottleneck: total virtual
  // time for a fixed interaction budget stops improving (queueing), unlike
  // an embarrassingly parallel split.
  Fixture f;
  f.ctx.config.iterations = 64;
  f.ctx.config.eval_every = 64;
  auto time_for = [&](std::size_t workers) {
    AlgoContext ctx = f.ctx;
    ctx.config.workers = workers;
    return run_fabric_async_easgd(ctx, FabricClusterConfig{}).total_seconds;
  };
  const double t1 = time_for(1);
  const double t8 = time_for(8);
  // 8 workers help, but nowhere near 8× (server round-trips serialise).
  EXPECT_LT(t8, t1);
  EXPECT_GT(t8, t1 / 8.0);
}

TEST(FabricEasgd, SingleRankDegeneratesToLocalTraining) {
  Fixture f;
  f.ctx.config.workers = 1;
  f.ctx.config.rho = 0.9f / 0.05f;
  const RunResult r = run_fabric_easgd(f.ctx, FabricClusterConfig{});
  EXPECT_GT(r.final_accuracy, 0.6);
}

// ---------------------------- Probes on the ranks ----------------------------

using FabricRunner = std::function<RunResult(const AlgoContext&)>;

/// The four fabric runners, named; the bucketed one in its deterministic
/// mode.
std::vector<std::pair<std::string, FabricRunner>> fabric_runners() {
  const FabricClusterConfig cluster;
  return {
      {"spmd", [cluster](const AlgoContext& c) {
         return run_fabric_easgd(c, cluster);
       }},
      {"parameter server", [cluster](const AlgoContext& c) {
         return run_fabric_async_easgd(c, cluster);
       }},
      {"bucketed", [cluster](const AlgoContext& c) {
         AlgoContext b = c;
         b.config.bucketing.bucket_bytes = 2048;  // tiny_mlp: 2 buckets
         return run_fabric_bucketed_easgd(b, cluster);
       }},
      {"round robin", [cluster](const AlgoContext& c) {
         return run_fabric_round_robin_easgd(c, cluster);
       }},
  };
}

TEST(FabricProbes, LastPointEqualsASerialEvaluatorOfTheFinalCenter) {
  // The probes run on the ranks' own networks after the join, in chunks of
  // batch_size rows; a serial Evaluator on a fresh network in 64-row chunks
  // must give the same bits for the run's final center.
  Fixture f;
  f.ctx.config.workers = 3;
  f.ctx.config.iterations = 30;
  f.ctx.config.eval_every = 10;
  f.ctx.config.eval_samples = 100;  // neither a batch nor a chunk multiple
  f.ctx.config.rho = 0.9f / (3.0f * 0.05f);
  for (const auto& [name, run] : fabric_runners()) {
    SCOPED_TRACE(name);
    const RunResult r = run(f.ctx);
    ASSERT_FALSE(r.trace.empty());
    EXPECT_EQ(r.trace.back().iteration, 30u);
    Evaluator oracle(f.ctx.factory, f.data.test, f.ctx.config.eval_samples);
    const TracePoint want = oracle.evaluate_packed(r.final_params);
    EXPECT_EQ(r.trace.back().loss, want.loss);
    EXPECT_EQ(r.trace.back().accuracy, want.accuracy);
  }
}

TEST(FabricProbes, RunsBuildOneNetworkPerRankAndNoneForEvaluation) {
  // SPMD: one replica per rank. Centered: one per worker plus the
  // reference on the center rank. The probes reuse them.
  Fixture f;
  f.ctx.config.workers = 3;
  f.ctx.config.iterations = 12;
  f.ctx.config.eval_every = 4;
  const auto calls = std::make_shared<std::atomic<std::size_t>>(0);
  f.ctx.factory = [calls] {
    ++*calls;
    Rng rng(17);
    return make_tiny_mlp(rng);
  };
  for (const auto& [name, run] : fabric_runners()) {
    SCOPED_TRACE(name);
    *calls = 0;
    const RunResult r = run(f.ctx);
    ASSERT_FALSE(r.trace.empty());
    EXPECT_EQ(calls->load(), name == "spmd" ? 3u : 4u);
  }
}

}  // namespace
}  // namespace ds
