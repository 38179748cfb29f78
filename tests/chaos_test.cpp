// Chaos suite for the fault-injection fabric and the graceful-degradation
// contracts of the EASGD algorithm family:
//
//   * message drops are repaired by retransmission — collectives stay EXACT;
//   * a permanently lost message times out (typed RankFailure) instead of
//     deadlocking a blocking receive;
//   * crashed peers are detected and surfaced as kPeerGone/kCrashed;
//   * the async family keeps training on the survivors; the sync/fabric
//     family aborts the failed round cleanly and reports partial progress;
//   * an all-zero plan is bitwise behavior-neutral.
//
// Everything here sticks to locked algorithm variants and mutex-protected
// fabric paths so the whole file is ThreadSanitizer-clean (the Hogwild
// variants race by design and are deliberately absent).
#include <gtest/gtest.h>

#include <vector>

#include "comm/bucket.hpp"
#include "comm/cost_model.hpp"
#include "comm/fabric.hpp"
#include "comm/fault.hpp"
#include "core/async_algorithms.hpp"
#include "core/fabric_algorithms.hpp"
#include "core/sync_algorithms.hpp"
#include "data/dataset.hpp"
#include "nn/models.hpp"
#include "obs/analysis/analysis.hpp"
#include "obs/trace.hpp"
#include "simhw/cluster_sim.hpp"
#include "simhw/gpu_system.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace ds {
namespace {

// --------------------------------------------------------------------------
// Fabric-level chaos.
// --------------------------------------------------------------------------

std::vector<std::vector<float>> integer_payloads(std::size_t ranks,
                                                 std::size_t n,
                                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> data(ranks, std::vector<float>(n));
  for (auto& vec : data) {
    for (auto& x : vec) {
      x = static_cast<float>(static_cast<int>(rng.uniform(-8.0, 9.0)));
    }
  }
  return data;
}

TEST(ChaosFabric, AllreduceExactUnderFivePercentDrop) {
  // 5% of sends are dropped; retransmission (reliable-transport model) must
  // still deliver every message, so ten consecutive allreduces across eight
  // ranks stay elementwise EXACT — chaos costs time, never correctness.
  const std::size_t p = 8;
  const std::size_t rounds = 10;
  FaultPlan plan;
  plan.with_drop(0.05);
  Fabric faulty(p, fdr_infiniband(), plan);
  Fabric clean(p, fdr_infiniband());

  for (std::size_t round = 0; round < rounds; ++round) {
    const auto payloads = integer_payloads(p, 96, 9000 + round);
    std::vector<float> expected(payloads.front().size(), 0.0f);
    for (const auto& vec : payloads) {
      for (std::size_t i = 0; i < expected.size(); ++i) expected[i] += vec[i];
    }
    for (Fabric* fabric : {&faulty, &clean}) {
      auto buffers = payloads;
      parallel_for_threads(p, [&](std::size_t r) {
        fabric->tree_allreduce(r, 0, buffers[r]);
      });
      for (std::size_t r = 0; r < p; ++r) {
        EXPECT_EQ(buffers[r], expected) << "rank " << r;
      }
    }
  }
  // ~140 messages/round at 5% drop: with the fixed plan seed some attempt
  // is certainly retransmitted, and every retry charges the sender.
  EXPECT_GT(faulty.max_clock(), clean.max_clock());
}

TEST(ChaosFabric, LostMessageTimesOutInsteadOfDeadlocking) {
  // drop=1.0 with two attempts loses the message for good; the blocking
  // recv must give up after max_recv_polls and surface kTimeout, charging
  // the receiver recv_timeout virtual seconds.
  FaultPlan plan;
  plan.with_drop(1.0);
  plan.max_send_attempts = 2;
  plan.recv_poll_seconds = 1.0e-4;
  plan.max_recv_polls = 25;
  plan.recv_timeout = 0.75;
  Fabric fabric(2, fdr_infiniband(), plan);

  fabric.send(1, 0, 5, {1.0f, 2.0f});  // lost after both attempts
  EXPECT_GT(fabric.clock(1), 0.0);     // attempts still cost the sender
  try {
    fabric.recv(0, 1, 5);
    FAIL() << "recv of a lost message must throw";
  } catch (const RankFailure& failure) {
    EXPECT_EQ(failure.kind(), RankFailure::Kind::kTimeout);
    EXPECT_EQ(failure.rank(), 1u);  // blames the silent peer
  }
  EXPECT_GE(fabric.clock(0), plan.recv_timeout);
}

TEST(ChaosFabric, CrashedRankThrowsAndPeersSeePeerGone) {
  FaultPlan plan;
  plan.with_crash(1, 1.0e-6);
  plan.recv_poll_seconds = 1.0e-4;
  Fabric fabric(2, fdr_infiniband(), plan);

  // Rank 1 crosses its scheduled crash time mid-advance.
  try {
    fabric.advance(1, 1.0);
    FAIL() << "advance across the crash time must throw";
  } catch (const RankFailure& failure) {
    EXPECT_EQ(failure.kind(), RankFailure::Kind::kCrashed);
    EXPECT_EQ(failure.rank(), 1u);
  }
  EXPECT_EQ(fabric.state(1), Fabric::RankState::kFailed);
  EXPECT_EQ(fabric.alive_ranks(), 1u);

  // The dead rank can no longer send…
  EXPECT_THROW(fabric.send(1, 0, 7, {1.0f}), RankFailure);
  // …and a peer blocked on it is released promptly with kPeerGone.
  try {
    fabric.recv(0, 1, 7);
    FAIL() << "recv from a dead peer must throw";
  } catch (const RankFailure& failure) {
    EXPECT_EQ(failure.kind(), RankFailure::Kind::kPeerGone);
    EXPECT_EQ(failure.rank(), 1u);
  }
}

TEST(ChaosFabric, StragglerScalesComputeAndTransferTime) {
  const LinkModel link{"t", 1.0e-3, 0.0};  // pure latency
  FaultPlan plan;
  plan.with_straggler(1, 4.0);
  Fabric fabric(2, link, plan);

  fabric.advance(0, 1.0);
  fabric.advance(1, 1.0);
  EXPECT_DOUBLE_EQ(fabric.clock(0), 1.0);
  EXPECT_DOUBLE_EQ(fabric.clock(1), 4.0);  // 4× slowdown on local work

  fabric.send(1, 0, 3, {1.0f});
  EXPECT_DOUBLE_EQ(fabric.clock(1), 4.0 + 4.0 * 1.0e-3);  // …and on sends
}

// --------------------------------------------------------------------------
// Algorithm-level chaos on a tiny synthetic problem.
// --------------------------------------------------------------------------

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
    ctx.config.iterations = 90;
    ctx.config.batch_size = 16;
    ctx.config.eval_every = 30;
    ctx.config.eval_samples = 128;
    ctx.config.learning_rate = 0.05f;
    ctx.config.rho = 0.9f / (3.0f * 0.05f);
  }
};

TEST(ChaosAsync, CrashedWorkerShareIsAbsorbedBySurvivors) {
  Fixture f;
  const RunResult clean = run_async(f.ctx, f.hw, AsyncMethod::kAsyncEasgd);
  ASSERT_GT(clean.total_seconds, 0.0);
  EXPECT_EQ(clean.workers, 3u);
  EXPECT_EQ(clean.workers_survived, 3u);

  // Worker 2's scheduled crash fires at its first iteration boundary: the
  // FCFS ticket queue hands its whole share to the survivors — no
  // deadlock, no crash, full interaction budget, reduced worker count on
  // record. (The crash time is 0 because a *virtual-time* threshold for a
  // specific worker is only crossed deterministically at t = 0: which
  // worker wins which ticket is real-scheduler-dependent by design, §8.)
  FaultPlan plan;
  plan.with_crash(2, 0.0);
  const RunResult r = run_async(f.ctx, f.hw, AsyncMethod::kAsyncEasgd, plan);
  EXPECT_EQ(r.workers, 3u);
  EXPECT_EQ(r.workers_survived, 2u);
  EXPECT_EQ(r.iterations, f.ctx.config.iterations);
  EXPECT_TRUE(r.degraded());
  EXPECT_FALSE(r.aborted);  // survivors finished the whole budget
  EXPECT_FALSE(r.abort_reason.empty());
  EXPECT_FALSE(r.final_params.empty());
  EXPECT_GT(r.final_accuracy, 0.4);
}

TEST(ChaosAsync, MidRunCrashReportsPartialProgress) {
  // One worker ⇒ the virtual clock is deterministic, so a crash threshold
  // at half the clean run time is a true mid-run crash: the run must end
  // early, report the cut budget, and still hand back a usable center.
  Fixture f;
  f.ctx.config.workers = 1;
  f.ctx.config.rho = 0.9f / 0.05f;
  const RunResult clean = run_async(f.ctx, f.hw, AsyncMethod::kAsyncEasgd);
  ASSERT_EQ(clean.iterations, f.ctx.config.iterations);

  FaultPlan plan;
  plan.with_crash(0, clean.total_seconds / 2.0);
  const RunResult r = run_async(f.ctx, f.hw, AsyncMethod::kAsyncEasgd, plan);
  EXPECT_EQ(r.workers, 1u);
  EXPECT_EQ(r.workers_survived, 0u);
  EXPECT_GT(r.iterations, 0u);
  EXPECT_LT(r.iterations, f.ctx.config.iterations);
  EXPECT_TRUE(r.aborted);
  EXPECT_TRUE(r.degraded());
  EXPECT_FALSE(r.abort_reason.empty());
  EXPECT_FALSE(r.final_params.empty());
}

TEST(ChaosAsync, ZeroPlanReproducesFaultFreeRunExactly) {
  // Single worker ⇒ the async runner is deterministic, so the 4-argument
  // overload with an inactive plan must be bitwise identical to the
  // fault-free entry point.
  Fixture f;
  f.ctx.config.workers = 1;
  f.ctx.config.rho = 0.9f / 0.05f;
  const RunResult a = run_async(f.ctx, f.hw, AsyncMethod::kAsyncEasgd);
  const RunResult b =
      run_async(f.ctx, f.hw, AsyncMethod::kAsyncEasgd, FaultPlan::none());
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].vtime, b.trace[i].vtime);
    EXPECT_EQ(a.trace[i].loss, b.trace[i].loss);
    EXPECT_EQ(a.trace[i].accuracy, b.trace[i].accuracy);
  }
  EXPECT_EQ(a.final_params, b.final_params);
}

TEST(ChaosSync, StragglerStretchesTimeWithoutChangingTheMath) {
  Fixture f;
  const RunResult clean = run_sync_easgd(f.ctx, f.hw, SyncEasgdVariant::kEasgd3);
  FaultPlan plan;
  plan.with_straggler(1, 5.0);
  const RunResult slow =
      run_sync_easgd(f.ctx, f.hw, SyncEasgdVariant::kEasgd3, plan);

  // A synchronous round gates on the slowest worker: virtual time stretches
  // but the training trajectory is bitwise unchanged.
  EXPECT_GT(slow.total_seconds, clean.total_seconds);
  EXPECT_FALSE(slow.aborted);
  ASSERT_EQ(slow.trace.size(), clean.trace.size());
  for (std::size_t i = 0; i < slow.trace.size(); ++i) {
    EXPECT_EQ(slow.trace[i].loss, clean.trace[i].loss);
    EXPECT_EQ(slow.trace[i].accuracy, clean.trace[i].accuracy);
    EXPECT_GT(slow.trace[i].vtime, clean.trace[i].vtime);
  }
  EXPECT_EQ(slow.final_params, clean.final_params);
}

TEST(ChaosSync, ScheduledCrashAbortsRoundCleanlyWithPartialProgress) {
  Fixture f;
  const RunResult clean = run_sync_easgd(f.ctx, f.hw, SyncEasgdVariant::kEasgd1);
  FaultPlan plan;
  plan.with_crash(1, clean.total_seconds / 2.0);
  const RunResult r =
      run_sync_easgd(f.ctx, f.hw, SyncEasgdVariant::kEasgd1, plan);

  EXPECT_TRUE(r.aborted);
  EXPECT_TRUE(r.degraded());
  EXPECT_FALSE(r.abort_reason.empty());
  EXPECT_EQ(r.workers, 3u);
  EXPECT_EQ(r.workers_survived, 2u);
  EXPECT_GT(r.iterations, 0u);
  EXPECT_LT(r.iterations, f.ctx.config.iterations);
  ASSERT_FALSE(r.trace.empty());
  EXPECT_EQ(r.trace.back().iteration, r.iterations);
  EXPECT_FALSE(r.final_params.empty());
  // Partial progress agrees with the fault-free run up to the abort.
  for (std::size_t i = 0; i + 1 < r.trace.size() && i < clean.trace.size();
       ++i) {
    EXPECT_EQ(r.trace[i].loss, clean.trace[i].loss);
  }
}

// --------------------------------------------------------------------------
// SPMD fabric runs under chaos.
// --------------------------------------------------------------------------

TEST(ChaosFabricEasgd, RankCrashAbortsWithoutDeadlock) {
  Fixture f;
  f.ctx.config.workers = 4;
  f.ctx.config.rho = 0.9f / (4.0f * 0.05f);
  FabricClusterConfig cluster;
  const RunResult clean = run_fabric_easgd(f.ctx, cluster);
  ASSERT_FALSE(clean.aborted);
  ASSERT_EQ(clean.workers_survived, 4u);

  cluster.faults.with_crash(1, clean.total_seconds / 2.0);
  // Faster liveness polling keeps the abort cascade quick in CI.
  cluster.faults.recv_poll_seconds = 2.0e-4;
  const RunResult r = run_fabric_easgd(f.ctx, cluster);

  EXPECT_TRUE(r.aborted);
  EXPECT_FALSE(r.abort_reason.empty());
  EXPECT_EQ(r.workers, 4u);
  EXPECT_EQ(r.workers_survived, 3u);
  EXPECT_GT(r.iterations, 0u);
  EXPECT_LT(r.iterations, f.ctx.config.iterations);
  ASSERT_FALSE(r.trace.empty());
  EXPECT_EQ(r.trace.back().iteration, r.iterations);
  EXPECT_FALSE(r.final_params.empty());
}

TEST(ChaosFabricAsync, ServerKeepsServingSurvivorsAfterWorkerCrash) {
  Fixture f;
  FabricClusterConfig cluster;
  const RunResult clean = run_fabric_async_easgd(f.ctx, cluster);
  ASSERT_EQ(clean.iterations, f.ctx.config.iterations);
  ASSERT_EQ(clean.workers_survived, 3u);

  // Worker rank 3 dies a quarter of the way in (early enough to be crossed
  // under any interleaving); the parameter server must keep serving the
  // surviving workers and end with a cleanly-cut interaction budget.
  cluster.faults.with_crash(3, clean.total_seconds / 4.0);
  cluster.faults.recv_poll_seconds = 2.0e-4;
  const RunResult r = run_fabric_async_easgd(f.ctx, cluster);

  EXPECT_EQ(r.workers, 3u);
  EXPECT_EQ(r.workers_survived, 2u);
  EXPECT_GT(r.iterations, 0u);
  EXPECT_LT(r.iterations, f.ctx.config.iterations);
  EXPECT_TRUE(r.aborted);
  EXPECT_FALSE(r.abort_reason.empty());
  EXPECT_FALSE(r.final_params.empty());
  ASSERT_FALSE(r.trace.empty());
  // The closing probe describes the center the run ends with.
  EXPECT_EQ(r.trace.back().iteration, r.iterations);
}

// --------------------------------------------------------------------------
// Bucketed backprop-overlapped exchange under chaos (DESIGN.md §10): the
// in-flight bucket pipeline inherits the whole graceful-degradation
// contract — drops are repaired without touching the math, stragglers are
// attributable from bucketed traces, and a mid-bucket crash aborts cleanly.
// --------------------------------------------------------------------------

AlgoContext bucketed_ctx(const Fixture& f, BucketMode mode) {
  AlgoContext ctx = f.ctx;
  ctx.config.bucketing.bucket_bytes = 2048;  // tiny_mlp -> 2 buckets
  ctx.config.bucketing.mode = mode;
  return ctx;
}

TEST(ChaosBucketed, DropsAreRepairedWithoutTouchingTheMath) {
  // 5% of bucket pushes/replies are dropped mid-flight; retransmission
  // must deliver every one, so the deterministic-mode run is bitwise the
  // clean run — chaos costs virtual time, never correctness.
  Fixture f;
  const AlgoContext ctx = bucketed_ctx(f, BucketMode::kDeterministic);
  FabricClusterConfig clean_cluster;
  const RunResult clean = run_fabric_bucketed_easgd(ctx, clean_cluster);
  ASSERT_FALSE(clean.aborted);

  FabricClusterConfig cluster;
  cluster.faults.seed = 4242;
  cluster.faults.with_drop(0.05);
  const RunResult dropped = run_fabric_bucketed_easgd(ctx, cluster);
  EXPECT_FALSE(dropped.aborted);
  EXPECT_EQ(dropped.iterations, f.ctx.config.iterations);
  EXPECT_GT(dropped.retransmits, 0u);
  EXPECT_GT(dropped.total_seconds, clean.total_seconds);
  EXPECT_EQ(dropped.final_params, clean.final_params);
  ASSERT_EQ(dropped.trace.size(), clean.trace.size());
  for (std::size_t i = 0; i < dropped.trace.size(); ++i) {
    EXPECT_EQ(dropped.trace[i].loss, clean.trace[i].loss);
  }
}

TEST(ChaosBucketed, AttributionNamesTheInjectedStraggler) {
  // Every rank emits one "collective"/bucket_exchange span per round; the
  // straggler's 3× compute makes it enter its exchange last, so the
  // sync-round critical-path analysis must name it the gate on the
  // bucketed trace.
  Fixture f;
  const AlgoContext ctx = bucketed_ctx(f, BucketMode::kDeterministic);
  FabricClusterConfig cluster;
  cluster.faults.with_straggler(2, 3.0);

  obs::set_tracing_enabled(false);
  obs::reset();
  obs::set_tracing_enabled(true);
  const RunResult r = run_fabric_bucketed_easgd(ctx, cluster);
  const obs::analysis::TraceData trace =
      obs::analysis::ingest_snapshot(obs::snapshot());
  obs::set_tracing_enabled(false);
  obs::reset();

  ASSERT_FALSE(r.aborted);
  const auto rounds = obs::analysis::sync_rounds(trace);
  ASSERT_FALSE(rounds.empty());
  const obs::analysis::StragglerReport report =
      obs::analysis::attribute_stragglers(rounds);
  EXPECT_EQ(report.top_rank(), 2) << "straggler misattributed on "
                                  << rounds.size() << " bucketed rounds";
  EXPECT_GT(report.gated_rounds, rounds.size() / 2);
}

TEST(ChaosBucketed, MidBucketCrashAbortsCleanlyInBothModes) {
  // A worker crash threshold at half the clean run time lands mid-round —
  // with in-flight buckets that means mid-bucket-sequence. Both completion
  // disciplines must abort the round cleanly: no deadlock, typed abort
  // reason, partial progress reported.
  Fixture f;
  for (const BucketMode mode :
       {BucketMode::kDeterministic, BucketMode::kWaitFree}) {
    SCOPED_TRACE(mode == BucketMode::kDeterministic ? "deterministic"
                                                    : "wait-free");
    const AlgoContext ctx = bucketed_ctx(f, mode);
    FabricClusterConfig cluster;
    const RunResult clean = run_fabric_bucketed_easgd(ctx, cluster);
    ASSERT_FALSE(clean.aborted);

    cluster.faults.with_crash(2, clean.total_seconds / 2.0);
    cluster.faults.recv_poll_seconds = 2.0e-4;
    const RunResult r = run_fabric_bucketed_easgd(ctx, cluster);
    EXPECT_TRUE(r.aborted);
    EXPECT_TRUE(r.degraded());
    EXPECT_FALSE(r.abort_reason.empty());
    EXPECT_EQ(r.workers, 3u);
    EXPECT_EQ(r.workers_survived, 2u);
    EXPECT_GT(r.iterations, 0u);
    EXPECT_LT(r.iterations, f.ctx.config.iterations);
    EXPECT_FALSE(r.final_params.empty());
    ASSERT_FALSE(r.trace.empty());
    EXPECT_EQ(r.trace.back().iteration, r.iterations);
  }
}

// --------------------------------------------------------------------------
// Centered fabric runners: rank 0 is the server, center or master, not a
// worker. Its crash aborts the run, but every worker rank unwinds and
// retires cleanly, so no worker is counted lost.
// --------------------------------------------------------------------------

TEST(ChaosFabricCenter, CenterCrashAbortsWithoutLosingAWorker) {
  Fixture f;
  using Runner = RunResult (*)(const AlgoContext&, const FabricClusterConfig&);
  const AlgoContext bucketed = bucketed_ctx(f, BucketMode::kDeterministic);
  const struct {
    const char* name;
    Runner run;
    const AlgoContext& ctx;
  } cases[] = {
      {"async", &run_fabric_async_easgd, f.ctx},
      {"bucketed", &run_fabric_bucketed_easgd, bucketed},
      {"round-robin", &run_fabric_round_robin_easgd, f.ctx},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    FabricClusterConfig cluster;
    const RunResult clean = c.run(c.ctx, cluster);
    ASSERT_FALSE(clean.aborted);

    cluster.faults.with_crash(0, clean.total_seconds / 2.0);
    cluster.faults.recv_poll_seconds = 2.0e-4;
    const RunResult r = c.run(c.ctx, cluster);
    EXPECT_TRUE(r.aborted);
    EXPECT_TRUE(r.degraded());
    EXPECT_FALSE(r.abort_reason.empty());
    EXPECT_EQ(r.workers, 3u);
    EXPECT_EQ(r.workers_survived, r.workers);
    EXPECT_LT(r.iterations, c.ctx.config.iterations);
    EXPECT_FALSE(r.final_params.empty());
    ASSERT_FALSE(r.trace.empty());
    EXPECT_EQ(r.trace.back().iteration, r.iterations);
  }
}

// --------------------------------------------------------------------------
// Cluster-scale degradation (weak-scaling simulator).
// --------------------------------------------------------------------------

TEST(ChaosClusterSim, NodeCrashShrinksTheAllreduceGroup) {
  ClusterSimConfig config;
  ClusterSim clean(config);
  const WeakScalingPoint base = clean.run(4, 50, Schedule::kOurs);
  EXPECT_EQ(base.surviving_nodes, 4u);

  config.faults.with_crash(3, base.seconds / 4.0);
  ClusterSim faulty(config);
  const WeakScalingPoint hit = faulty.run(4, 50, Schedule::kOurs);
  EXPECT_EQ(hit.surviving_nodes, 3u);
  EXPECT_GT(hit.seconds, 0.0);
}

TEST(ChaosClusterSim, StragglerNodeSlowsEverySynchronousStep) {
  ClusterSimConfig config;
  ClusterSim clean(config);
  const WeakScalingPoint base = clean.run(4, 50, Schedule::kOurs);

  config.faults.with_straggler(2, 3.0);
  ClusterSim faulty(config);
  const WeakScalingPoint hit = faulty.run(4, 50, Schedule::kOurs);
  EXPECT_GT(hit.seconds, base.seconds);
  EXPECT_EQ(hit.surviving_nodes, 4u);
}

}  // namespace
}  // namespace ds
