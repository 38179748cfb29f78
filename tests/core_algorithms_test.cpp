// Integration tests of the distributed algorithm family on a tiny MLP and
// a tiny synthetic dataset — fast enough for CI, real enough that accuracy
// must actually climb.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "core/fabric_algorithms.hpp"
#include "core/knl_algorithms.hpp"
#include "core/methods.hpp"
#include "data/dataset.hpp"
#include "nn/models.hpp"

namespace ds {
namespace {

struct Fixture {
  TrainTest data;
  AlgoContext ctx;
  GpuSystem hw{GpuSystemConfig{}, paper_lenet(), 8.0 * 8.0 * 4.0};

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
    ctx.config.workers = 3;
    ctx.config.iterations = 120;
    ctx.config.batch_size = 16;
    ctx.config.eval_every = 30;
    ctx.config.eval_samples = 128;
    ctx.config.learning_rate = 0.05f;
    // EASGD moving-rate rule: η·ρ ≈ 0.9/P.
    ctx.config.rho = 0.9f / (3.0f * 0.05f);
  }
};

// ----------------------------- Sync EASGD ------------------------------------

TEST(SyncEasgd, AccuracyImproves) {
  Fixture f;
  const RunResult r = run_sync_easgd(f.ctx, f.hw, SyncEasgdVariant::kEasgd3);
  ASSERT_FALSE(r.trace.empty());
  EXPECT_GT(r.final_accuracy, 0.6);
  EXPECT_GT(r.final_accuracy, r.trace.front().accuracy);
}

TEST(SyncEasgd, DeterministicAcrossRuns) {
  // The paper's headline property (§8): Sync EASGD is deterministic and
  // reproducible.
  Fixture f;
  const RunResult a = run_sync_easgd(f.ctx, f.hw, SyncEasgdVariant::kEasgd3);
  const RunResult b = run_sync_easgd(f.ctx, f.hw, SyncEasgdVariant::kEasgd3);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].accuracy, b.trace[i].accuracy);
    EXPECT_EQ(a.trace[i].loss, b.trace[i].loss);
    EXPECT_EQ(a.trace[i].vtime, b.trace[i].vtime);
  }
}

TEST(SyncEasgd, VariantsShareMathDifferInTime) {
  // EASGD1/2/3 are the same algorithm with different placement/overlap —
  // identical accuracy trajectory, strictly decreasing virtual time.
  Fixture f;
  const RunResult v1 = run_sync_easgd(f.ctx, f.hw, SyncEasgdVariant::kEasgd1);
  const RunResult v2 = run_sync_easgd(f.ctx, f.hw, SyncEasgdVariant::kEasgd2);
  const RunResult v3 = run_sync_easgd(f.ctx, f.hw, SyncEasgdVariant::kEasgd3);
  ASSERT_EQ(v1.trace.size(), v3.trace.size());
  for (std::size_t i = 0; i < v1.trace.size(); ++i) {
    EXPECT_EQ(v1.trace[i].accuracy, v2.trace[i].accuracy);
    EXPECT_EQ(v2.trace[i].accuracy, v3.trace[i].accuracy);
  }
  EXPECT_GT(v1.total_seconds, v2.total_seconds);
  EXPECT_GT(v2.total_seconds, v3.total_seconds);
}

TEST(SyncEasgd, TraceTimesMonotone) {
  Fixture f;
  const RunResult r = run_sync_easgd(f.ctx, f.hw, SyncEasgdVariant::kEasgd2);
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_GT(r.trace[i].vtime, r.trace[i - 1].vtime);
    EXPECT_GT(r.trace[i].iteration, r.trace[i - 1].iteration);
  }
}

TEST(SyncEasgd, Easgd1UsesHostLinkEasgd2UsesSwitch) {
  Fixture f;
  const RunResult v1 = run_sync_easgd(f.ctx, f.hw, SyncEasgdVariant::kEasgd1);
  const RunResult v2 = run_sync_easgd(f.ctx, f.hw, SyncEasgdVariant::kEasgd2);
  EXPECT_GT(v1.ledger.seconds(Phase::kCpuGpuParamComm), 0.0);
  EXPECT_EQ(v1.ledger.seconds(Phase::kGpuGpuParamComm), 0.0);
  EXPECT_EQ(v2.ledger.seconds(Phase::kCpuGpuParamComm), 0.0);
  EXPECT_GT(v2.ledger.seconds(Phase::kGpuGpuParamComm), 0.0);
  // §6.1.2: moving the center onto the device removes the host-side
  // master update.
  EXPECT_GT(v1.ledger.seconds(Phase::kCpuUpdate), 0.0);
  EXPECT_EQ(v2.ledger.seconds(Phase::kCpuUpdate), 0.0);
}

// ---------------------------- Original EASGD ---------------------------------

TEST(OriginalEasgd, AccuracyImprovesWithEnoughIterations) {
  Fixture f;
  f.ctx.config.iterations = 360;  // one worker per iteration needs ~3×
  const RunResult r =
      run_original_easgd(f.ctx, f.hw, OriginalVariant::kOverlapped);
  EXPECT_GT(r.final_accuracy, 0.55);
}

TEST(OriginalEasgd, CommDominatesItsRuntime) {
  // Table 3: 87% communication for the overlapped baseline.
  Fixture f;
  const RunResult r =
      run_original_easgd(f.ctx, f.hw, OriginalVariant::kOverlapped);
  EXPECT_GT(r.ledger.comm_ratio(), 0.6);
}

TEST(OriginalEasgd, NonOverlappedIsSlowerSameMath) {
  Fixture f;
  const RunResult a =
      run_original_easgd(f.ctx, f.hw, OriginalVariant::kOverlapped);
  const RunResult b =
      run_original_easgd(f.ctx, f.hw, OriginalVariant::kNonOverlapped);
  EXPECT_GT(b.total_seconds, a.total_seconds);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].accuracy, b.trace[i].accuracy);
  }
}

TEST(OriginalEasgd, SlowerThanSyncEasgdToSameAccuracy) {
  // The paper's 5.3× claim in miniature: time-to-accuracy must favour
  // Sync EASGD3 clearly.
  Fixture f;
  f.ctx.config.iterations = 360;
  const RunResult orig =
      run_original_easgd(f.ctx, f.hw, OriginalVariant::kOverlapped);
  f.ctx.config.iterations = 120;
  const RunResult sync =
      run_sync_easgd(f.ctx, f.hw, SyncEasgdVariant::kEasgd3);
  const double target = 0.55;
  const auto t_orig = orig.time_to_accuracy(target);
  const auto t_sync = sync.time_to_accuracy(target);
  ASSERT_TRUE(t_orig.has_value());
  ASSERT_TRUE(t_sync.has_value());
  EXPECT_GT(*t_orig, 2.0 * *t_sync);
}

// ------------------------------ Sync SGD -------------------------------------

TEST(SyncSgd, AccuracyImproves) {
  Fixture f;
  const RunResult r = run_sync_sgd(f.ctx, f.hw);
  EXPECT_GT(r.final_accuracy, 0.6);
}

TEST(SyncSgd, PackedFasterThanPerLayerSameAccuracy) {
  // Figure 10 in miniature.
  Fixture f;
  f.ctx.config.layout = MessageLayout::kPacked;
  const RunResult packed = run_sync_sgd(f.ctx, f.hw);
  f.ctx.config.layout = MessageLayout::kPerLayer;
  const RunResult layered = run_sync_sgd(f.ctx, f.hw);
  EXPECT_LT(packed.total_seconds, layered.total_seconds);
  ASSERT_EQ(packed.trace.size(), layered.trace.size());
  for (std::size_t i = 0; i < packed.trace.size(); ++i) {
    EXPECT_EQ(packed.trace[i].accuracy, layered.trace[i].accuracy);
  }
}

TEST(SyncSgd, PerLayerArenaMatchesPackedArena) {
  // Physical per-layer allocation (baseline frameworks) must not change
  // the math either.
  Fixture f;
  const RunResult packed = run_sync_sgd(f.ctx, f.hw);
  f.ctx.factory = [] {
    Rng rng(17);
    return make_tiny_mlp(rng, PackMode::kPerLayer);
  };
  const RunResult layered = run_sync_sgd(f.ctx, f.hw);
  ASSERT_EQ(packed.trace.size(), layered.trace.size());
  for (std::size_t i = 0; i < packed.trace.size(); ++i) {
    EXPECT_EQ(packed.trace[i].accuracy, layered.trace[i].accuracy);
  }
}

// ------------------------------- Async ---------------------------------------

class AsyncMethodTest : public ::testing::TestWithParam<AsyncMethod> {};

TEST_P(AsyncMethodTest, AccuracyImproves) {
  Fixture f;
  f.ctx.config.iterations = 240;  // total interactions across 3 workers
  const RunResult r = run_async(f.ctx, f.hw, GetParam());
  ASSERT_FALSE(r.trace.empty());
  EXPECT_GT(r.final_accuracy, 0.5)
      << async_method_name(GetParam());
  EXPECT_GT(r.total_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllSix, AsyncMethodTest,
    ::testing::Values(AsyncMethod::kAsyncSgd, AsyncMethod::kAsyncMomentumSgd,
                      AsyncMethod::kAsyncEasgd,
                      AsyncMethod::kAsyncMomentumEasgd,
                      AsyncMethod::kHogwildSgd, AsyncMethod::kHogwildEasgd));

TEST(Async, TraceVirtualTimesMonotone) {
  Fixture f;
  f.ctx.config.iterations = 150;
  const RunResult r = run_async(f.ctx, f.hw, AsyncMethod::kHogwildEasgd);
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_GE(r.trace[i].vtime, r.trace[i - 1].vtime);
  }
}

TEST(Async, HogwildEasgdFasterThanAsyncEasgd) {
  // Removing the master lock removes the serialisation bottleneck; virtual
  // time for the same interaction budget must drop (Figure 6.3's x-axis).
  // Caveat: the FCFS virtual clock tracks the *real* scheduler (§8), and on
  // a loaded single-core host the OS can hand one worker the whole ticket
  // queue inside one scheduling quantum — with no real worker overlap there
  // is no serialisation to measure and both methods legitimately cost the
  // same. Retry with an escalating budget: a long enough run spans many
  // scheduling quanta, so every worker gets on-core and genuine overlap
  // shows the lock-free win.
  bool strictly_faster = false;
  for (int attempt = 0; attempt < 5 && !strictly_faster; ++attempt) {
    Fixture f;
    f.ctx.config.iterations = 240u << attempt;
    const RunResult locked = run_async(f.ctx, f.hw, AsyncMethod::kAsyncEasgd);
    const RunResult hogwild =
        run_async(f.ctx, f.hw, AsyncMethod::kHogwildEasgd);
    strictly_faster = hogwild.total_seconds < locked.total_seconds;
  }
  EXPECT_TRUE(strictly_faster);
}

TEST(Async, MethodNamesAreDistinct) {
  std::set<std::string> names;
  for (const auto m :
       {AsyncMethod::kAsyncSgd, AsyncMethod::kAsyncMomentumSgd,
        AsyncMethod::kAsyncEasgd, AsyncMethod::kAsyncMomentumEasgd,
        AsyncMethod::kHogwildSgd, AsyncMethod::kHogwildEasgd}) {
    names.insert(async_method_name(m));
  }
  EXPECT_EQ(names.size(), 6u);
}

// ------------------------------ Dispatcher -----------------------------------

TEST(Methods, AllEightRunAndImprove) {
  Fixture f;
  f.ctx.config.iterations = 90;
  f.ctx.config.eval_every = 45;
  for (const Method m : all_methods()) {
    // Give the one-worker-per-iteration baseline its proportional budget.
    AlgoContext ctx = f.ctx;
    if (m == Method::kOriginalEasgd) {
      ctx.config.iterations *= ctx.config.workers;
    }
    const RunResult r = run_method(m, ctx, f.hw);
    EXPECT_EQ(r.method, method_name(m));
    EXPECT_FALSE(r.trace.empty()) << method_name(m);
    EXPECT_GT(r.final_accuracy, 0.3) << method_name(m);
  }
}

TEST(Methods, LineageClassification) {
  EXPECT_FALSE(is_new_method(Method::kOriginalEasgd));
  EXPECT_FALSE(is_new_method(Method::kAsyncSgd));
  EXPECT_FALSE(is_new_method(Method::kHogwildSgd));
  EXPECT_TRUE(is_new_method(Method::kSyncEasgd));
  EXPECT_TRUE(is_new_method(Method::kHogwildEasgd));
  EXPECT_EQ(all_methods().size(), 8u);
}

// ----------------------------- KNL cluster -----------------------------------

TEST(ClusterEasgd, Algorithm4Improves) {
  Fixture f;
  ClusterTiming timing;
  timing.model = paper_lenet();
  const RunResult r = run_cluster_sync_easgd(f.ctx, timing);
  EXPECT_GT(r.final_accuracy, 0.6);
  // All inter-node traffic, no host<->device phases.
  EXPECT_EQ(r.ledger.seconds(Phase::kCpuGpuDataComm), 0.0);
  EXPECT_GT(r.ledger.seconds(Phase::kGpuGpuParamComm), 0.0);
}

TEST(ClusterEasgd, MoreNodesReachTargetFaster) {
  // Figure 13: more machines + more data ⇒ target accuracy sooner in
  // virtual time.
  Fixture f;
  ClusterTiming timing;
  timing.model = paper_lenet();
  f.ctx.config.iterations = 150;
  f.ctx.config.eval_every = 2;  // fine-grained time-to-target probes
  f.ctx.config.workers = 1;
  f.ctx.config.rho = 0.9f / (1.0f * f.ctx.config.learning_rate);
  const RunResult one = run_cluster_sync_easgd(f.ctx, timing);
  f.ctx.config.workers = 4;
  f.ctx.config.rho = 0.9f / (4.0f * f.ctx.config.learning_rate);
  const RunResult four = run_cluster_sync_easgd(f.ctx, timing);
  const double target = 0.8;
  const auto t1 = one.time_to_accuracy(target);
  const auto t4 = four.time_to_accuracy(target);
  ASSERT_TRUE(t4.has_value());
  if (t1.has_value()) {
    EXPECT_LT(*t4, *t1);
  }
}

// ---------------------------- KNL partition ----------------------------------

TEST(KnlPartition, RunsAndReportsGeometry) {
  Fixture f;
  const KnlChip chip;
  KnlPartitionConfig pcfg;
  pcfg.parts = 4;
  pcfg.paper_model = paper_alexnet();
  pcfg.target_accuracy = 0.5;
  pcfg.max_rounds = 150;
  f.ctx.config.eval_every = 15;
  const KnlPartitionResult r = run_knl_partition(f.ctx, chip, pcfg);
  EXPECT_EQ(r.parts, 4u);
  EXPECT_GT(r.round_seconds, 0.0);
  EXPECT_NEAR(r.footprint_gb, 4.0 * (249.0 + 687.0) / 1024.0, 0.01);
  EXPECT_FALSE(r.run.trace.empty());
}

TEST(KnlPartition, MorePartitionsReachTargetFasterUntilCapacity) {
  Fixture f;
  // Evaluate every round so time-to-target is measured at full resolution.
  f.ctx.config.eval_every = 1;
  const KnlChip chip;
  auto run_p = [&](std::size_t parts) {
    KnlPartitionConfig pcfg;
    pcfg.parts = parts;
    pcfg.paper_model = paper_alexnet();
    pcfg.target_accuracy = 0.8;
    pcfg.max_rounds = 200;
    return run_knl_partition(f.ctx, chip, pcfg);
  };
  const auto p1 = run_p(1);
  const auto p4 = run_p(4);
  const auto p32 = run_p(32);
  ASSERT_TRUE(p4.reached_target);
  if (p1.reached_target) {
    EXPECT_LT(p4.seconds_to_target, p1.seconds_to_target);
  }
  // Past MCDRAM capacity the per-round time explodes (Figure 12's limit).
  EXPECT_GT(p32.round_seconds, p4.round_seconds);
}

// ----------------------------- Shared harness --------------------------------

TEST(ModeledRunners, CleanRunsFillWorkersIterationsAndFinalParams) {
  Fixture f;
  f.ctx.config.iterations = 6;
  f.ctx.config.eval_every = 4;
  const std::size_t params = f.ctx.factory()->param_count();
  ClusterTiming timing;
  timing.model = paper_lenet();
  KnlPartitionConfig pcfg;
  pcfg.parts = 2;
  pcfg.paper_model = paper_alexnet();
  pcfg.max_rounds = 5;
  pcfg.target_accuracy = 2.0;  // never reached: all five rounds run
  const KnlChip chip;
  struct Case {
    RunResult run;
    std::size_t workers;
    std::size_t iterations;
  };
  const Case cases[] = {
      {run_original_easgd(f.ctx, f.hw, OriginalVariant::kOverlapped), 3, 6},
      {run_sync_easgd(f.ctx, f.hw, SyncEasgdVariant::kEasgd3), 3, 6},
      {run_sync_sgd(f.ctx, f.hw), 3, 6},
      {run_cluster_sync_easgd(f.ctx, timing), 3, 6},
      {run_knl_partition(f.ctx, chip, pcfg).run, 2, 5},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.run.method);
    EXPECT_EQ(c.run.workers, c.workers);
    EXPECT_EQ(c.run.workers_survived, c.workers);
    EXPECT_EQ(c.run.iterations, c.iterations);
    EXPECT_EQ(c.run.final_params.size(), params);
    EXPECT_FALSE(c.run.degraded());
  }
}

void expect_zero_cadence_rejected(const std::function<void()>& run) {
  try {
    run();
    ADD_FAILURE() << "expected a ds::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("eval_every"), std::string::npos)
        << e.what();
  }
}

TEST(EvalCadence, ZeroEvalEveryIsAnErrorForEveryRunner) {
  Fixture f;
  f.ctx.config.iterations = 4;
  f.ctx.config.eval_every = 0;
  ClusterTiming timing;
  timing.model = paper_lenet();
  KnlPartitionConfig pcfg;
  pcfg.paper_model = paper_alexnet();
  pcfg.max_rounds = 4;
  const KnlChip chip;
  expect_zero_cadence_rejected([&] {
    run_original_easgd(f.ctx, f.hw, OriginalVariant::kOverlapped);
  });
  expect_zero_cadence_rejected(
      [&] { run_sync_easgd(f.ctx, f.hw, SyncEasgdVariant::kEasgd3); });
  expect_zero_cadence_rejected([&] { run_sync_sgd(f.ctx, f.hw); });
  expect_zero_cadence_rejected(
      [&] { run_cluster_sync_easgd(f.ctx, timing); });
  expect_zero_cadence_rejected(
      [&] { run_knl_partition(f.ctx, chip, pcfg); });
  for (const AsyncMethod m :
       {AsyncMethod::kAsyncSgd, AsyncMethod::kAsyncMomentumSgd,
        AsyncMethod::kAsyncEasgd, AsyncMethod::kAsyncMomentumEasgd,
        AsyncMethod::kHogwildSgd, AsyncMethod::kHogwildEasgd}) {
    SCOPED_TRACE(async_method_name(m));
    expect_zero_cadence_rejected([&] { run_async(f.ctx, f.hw, m); });
  }
  AlgoContext bucketed = f.ctx;
  bucketed.config.bucketing.bucket_bytes = 2048;
  const FabricClusterConfig cluster;
  expect_zero_cadence_rejected([&] { run_fabric_easgd(f.ctx, cluster); });
  expect_zero_cadence_rejected(
      [&] { run_fabric_async_easgd(f.ctx, cluster); });
  expect_zero_cadence_rejected(
      [&] { run_fabric_bucketed_easgd(bucketed, cluster); });
  expect_zero_cadence_rejected(
      [&] { run_fabric_round_robin_easgd(f.ctx, cluster); });
}

}  // namespace
}  // namespace ds
