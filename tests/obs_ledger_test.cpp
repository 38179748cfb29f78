// The ledger ↔ trace contract: with tracing enabled, the per-phase sums of
// the "ledger"-category complete spans must equal the run's CostLedger to
// 1e-9 for every runner family — charge_traced() makes the span and the
// charge the same call, so any divergence means an instrumentation bug
// (a charge() that bypassed tracing, or a span that isn't a charge).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "comm/ledger.hpp"
#include "core/fabric_algorithms.hpp"
#include "core/knl_algorithms.hpp"
#include "core/sync_algorithms.hpp"
#include "data/dataset.hpp"
#include "nn/models.hpp"
#include "obs/trace.hpp"

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
    spec.train_count = 256;
    spec.test_count = 64;
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
    ctx.config.iterations = 30;
    ctx.config.batch_size = 16;
    ctx.config.eval_every = 15;
    ctx.config.eval_samples = 64;
    ctx.config.learning_rate = 0.05f;
    ctx.config.rho = 0.9f / (3.0f * 0.05f);
  }
};

/// Per-phase sum of the "ledger" complete spans in the current snapshot.
double ledger_span_sum(Phase phase) {
  const char* want = phase_name(phase);
  double sum = 0.0;
  for (const obs::ThreadEvents& te : obs::snapshot()) {
    for (const obs::Event& e : te.events) {
      if (e.type == obs::EventType::kCompleteV &&
          std::strcmp(e.category, "ledger") == 0 &&
          std::strcmp(e.name, want) == 0) {
        sum += e.value;
      }
    }
  }
  return sum;
}

void expect_rollup_matches(const CostLedger& ledger) {
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const Phase phase = static_cast<Phase>(i);
    EXPECT_NEAR(ledger_span_sum(phase), ledger.seconds(phase), 1e-9)
        << "phase " << phase_name(phase);
  }
  EXPECT_EQ(obs::dropped_events(), 0u);
}

class ObsLedgerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_tracing_enabled(false);
    obs::reset();
    obs::set_tracing_enabled(true);
  }
  void TearDown() override {
    obs::set_tracing_enabled(false);
    obs::reset();
  }
};

TEST_F(ObsLedgerTest, OriginalEasgdRollupMatchesLedger) {
  Fixture f;
  const RunResult r =
      run_original_easgd(f.ctx, f.hw, OriginalVariant::kOverlapped);
  ASSERT_GT(r.ledger.total_seconds(), 0.0);
  expect_rollup_matches(r.ledger);
}

TEST_F(ObsLedgerTest, SyncEasgd3RollupMatchesLedger) {
  Fixture f;
  const RunResult r = run_sync_easgd(f.ctx, f.hw, SyncEasgdVariant::kEasgd3);
  ASSERT_GT(r.ledger.total_seconds(), 0.0);
  expect_rollup_matches(r.ledger);
  EXPECT_GT(r.messages_sent, 0u);
  EXPECT_GT(r.bytes_sent, 0u);
}

TEST_F(ObsLedgerTest, ClusterSyncEasgdRollupMatchesLedger) {
  Fixture f;
  const ClusterTiming timing;
  const RunResult r = run_cluster_sync_easgd(f.ctx, timing);
  ASSERT_GT(r.ledger.total_seconds(), 0.0);
  expect_rollup_matches(r.ledger);
}

TEST_F(ObsLedgerTest, FabricEasgdRollupMatchesLedger) {
  Fixture f;
  f.ctx.config.workers = 4;
  const FabricClusterConfig cluster;
  const RunResult r = run_fabric_easgd(f.ctx, cluster);
  ASSERT_GT(r.ledger.total_seconds(), 0.0);
  expect_rollup_matches(r.ledger);
  EXPECT_GT(r.messages_sent, 0u);
  EXPECT_GT(r.bytes_sent, 0u);
}

TEST_F(ObsLedgerTest, FabricEasgdUnderFaultsRollupMatchesLedger) {
  // The exactness contract must survive drops + retransmits + a straggler:
  // measured clock deltas, not modeled costs, feed the ledger.
  Fixture f;
  f.ctx.config.workers = 4;
  FabricClusterConfig cluster;
  cluster.faults.with_drop(0.05).with_straggler(1, 2.0);
  cluster.faults.max_send_attempts = 12;
  const RunResult r = run_fabric_easgd(f.ctx, cluster);
  ASSERT_FALSE(r.aborted);
  expect_rollup_matches(r.ledger);
  EXPECT_GT(r.retransmits, 0u);
}

TEST_F(ObsLedgerTest, FabricAsyncEasgdRollupMatchesLedger) {
  Fixture f;
  const FabricClusterConfig cluster;
  const RunResult r = run_fabric_async_easgd(f.ctx, cluster);
  ASSERT_GT(r.ledger.total_seconds(), 0.0);
  expect_rollup_matches(r.ledger);
  EXPECT_GT(r.messages_sent, 0u);
}

TEST_F(ObsLedgerTest, FabricBucketedDeterministicRollupMatchesLedger) {
  Fixture f;
  f.ctx.config.bucketing.bucket_bytes = 2048;  // tiny_mlp -> 2 buckets
  f.ctx.config.bucketing.mode = BucketMode::kDeterministic;
  const RunResult r = run_fabric_bucketed_easgd(f.ctx, FabricClusterConfig{});
  ASSERT_GT(r.ledger.total_seconds(), 0.0);
  expect_rollup_matches(r.ledger);
  EXPECT_GT(r.messages_sent, 0u);
}

TEST_F(ObsLedgerTest, FabricBucketedWaitFreeRollupMatchesLedger) {
  Fixture f;
  f.ctx.config.bucketing.bucket_bytes = 2048;
  f.ctx.config.bucketing.mode = BucketMode::kWaitFree;
  const RunResult r = run_fabric_bucketed_easgd(f.ctx, FabricClusterConfig{});
  ASSERT_GT(r.ledger.total_seconds(), 0.0);
  expect_rollup_matches(r.ledger);
  EXPECT_GT(r.messages_sent, 0u);
}

TEST_F(ObsLedgerTest, FabricRoundRobinRollupMatchesLedger) {
  Fixture f;
  const RunResult r =
      run_fabric_round_robin_easgd(f.ctx, FabricClusterConfig{});
  ASSERT_GT(r.ledger.total_seconds(), 0.0);
  expect_rollup_matches(r.ledger);
  EXPECT_GT(r.messages_sent, 0u);
}

TEST_F(ObsLedgerTest, FabricRoundRobinBucketedRollupMatchesLedger) {
  Fixture f;
  f.ctx.config.bucketing.bucket_bytes = 2048;
  const RunResult r =
      run_fabric_round_robin_easgd(f.ctx, FabricClusterConfig{});
  ASSERT_GT(r.ledger.total_seconds(), 0.0);
  expect_rollup_matches(r.ledger);
  EXPECT_GT(r.messages_sent, 0u);
}

}  // namespace
}  // namespace ds
