// The modeled runners (Sync EASGD, Sync SGD, cluster Sync EASGD, KNL
// partition) compute their workers' gradients concurrently from the first
// round on, and probe the test set on those worker replicas. These tests
// pin that down four ways: (a) against a hand-rolled serial reference built
// from the public API (a serial Evaluator probes), bit for bit, also for a
// run of one round; (b) a conv
// kernel pinned on the caller's kernel_config() is the one the workers run;
// (c) repeated runs — also with intra-GEMM threading on the caller — are
// bit-identical; and (d) the probe's edge cases — rows that fill neither a
// batch nor a 64-row chunk, more workers than hardware threads, a probe
// before any gradient step, per-layer arenas — still match (a).
#include <gtest/gtest.h>
#include <sched.h>

#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "comm/collectives.hpp"
#include "core/easgd_rules.hpp"
#include "core/evaluator.hpp"
#include "core/knl_algorithms.hpp"
#include "core/sync_algorithms.hpp"
#include "data/dataset.hpp"
#include "data/sampler.hpp"
#include "nn/forward_lanes.hpp"
#include "nn/layers.hpp"
#include "nn/models.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace ds {
namespace {

constexpr std::size_t kWorkers = 3;  // odd on purpose
constexpr std::size_t kRounds = 3;

/// Conv (direct at 12×12 under kAuto) → LRN → pool → conv (im2col at 6×6)
/// → dense → Dropout → dense: every layer kind with per-replica state.
std::unique_ptr<Network> make_model(PackMode pack = PackMode::kPacked) {
  Rng rng(23);
  auto net = std::make_unique<Network>(Shape{2, 12, 12}, pack);
  net->add(std::make_unique<Conv2D>(2, 4, 3, 1, 1));
  net->add(std::make_unique<ReLU>());
  net->add(std::make_unique<LocalResponseNorm>(3));
  net->add(std::make_unique<MaxPool2D>(2, 2));
  net->add(std::make_unique<Conv2D>(4, 8, 3, 1, 1));
  net->add(std::make_unique<ReLU>());
  net->add(std::make_unique<MaxPool2D>(2, 2));
  net->add(std::make_unique<Flatten>());
  net->add(std::make_unique<FullyConnected>(72, 16));
  net->add(std::make_unique<ReLU>());
  net->add(std::make_unique<Dropout>(0.5));
  net->add(std::make_unique<FullyConnected>(16, 4));
  net->finalize(rng);
  return net;
}

struct Fixture {
  TrainTest data;
  AlgoContext ctx;
  GpuSystem hw{[] {
                 GpuSystemConfig c;
                 c.gpus = kWorkers;
                 return c;
               }(),
               paper_lenet(), 2.0 * 12.0 * 12.0 * 4.0};
  ClusterTiming timing;

  Fixture() {
    SyntheticSpec spec;
    spec.classes = 4;
    spec.channels = 2;
    spec.height = 12;
    spec.width = 12;
    spec.train_count = 96;
    spec.test_count = 128;
    spec.noise = 0.8;
    spec.seed = 5;
    data = make_synthetic(spec);
    ctx.factory = [] { return make_model(); };
    ctx.train = &data.train;
    ctx.test = &data.test;
    ctx.config.workers = kWorkers;
    ctx.config.iterations = kRounds;
    ctx.config.batch_size = 4;
    ctx.config.eval_every = 1;
    ctx.config.eval_samples = 32;
    ctx.config.learning_rate = 0.05f;
    ctx.config.seed = 7;
    timing.model = paper_lenet();
  }
};

// ---------------------------------------------------------------------------
// Serial reference: the pre-parallel loop, from the public API only.
// ---------------------------------------------------------------------------

struct Reference {
  std::vector<float> final_params;
  std::vector<TracePoint> trace;
};

struct SerialWorkers {
  std::vector<std::unique_ptr<Network>> nets;
  std::vector<BatchSampler> samplers;
  Tensor batch;
  std::vector<std::int32_t> labels;

  SerialWorkers(const AlgoContext& ctx,
                const std::function<std::uint64_t(std::size_t)>& seed) {
    for (std::size_t i = 0; i < ctx.config.workers; ++i) {
      nets.push_back(ctx.factory());
      if (i > 0) nets[i]->copy_params_from(*nets[0]);
      samplers.emplace_back(*ctx.train, ctx.config.batch_size, seed(i));
    }
  }

  void step() {
    for (std::size_t j = 0; j < nets.size(); ++j) {
      samplers[j].next(batch, labels);
      nets[j]->zero_grads();
      nets[j]->forward_backward(batch, labels);
    }
  }
};

Reference serial_easgd(const AlgoContext& ctx,
                       const std::function<std::uint64_t(std::size_t)>& seed) {
  const TrainConfig& cfg = ctx.config;
  SerialWorkers w(ctx, seed);
  Evaluator eval(ctx.factory, *ctx.test, cfg.eval_samples);
  const auto p0 = w.nets[0]->arena().full_params();
  std::vector<float> center(p0.begin(), p0.end());
  std::vector<float> sum(center.size());
  Reference ref;
  for (std::size_t t = 1; t <= cfg.iterations; ++t) {
    w.step();
    std::vector<std::span<const float>> views;
    for (auto& net : w.nets) views.push_back(net->arena().full_params());
    reduce_sum(views, sum);
    const float lr = cfg.lr_at(t);
    for (auto& net : w.nets) {
      easgd_worker_step(net->arena().full_params(), net->arena().full_grads(),
                        center, lr, cfg.rho);
    }
    easgd_center_step_sum(center, sum, cfg.workers, lr, cfg.rho);
    TracePoint p = eval.evaluate_packed(center);
    p.iteration = t;
    ref.trace.push_back(p);
  }
  ref.final_params = center;
  return ref;
}

Reference serial_sgd(const AlgoContext& ctx,
                     const std::function<std::uint64_t(std::size_t)>& seed,
                     float lr_scale) {
  const TrainConfig& cfg = ctx.config;
  SerialWorkers w(ctx, seed);
  Evaluator eval(ctx.factory, *ctx.test, cfg.eval_samples);
  const float inv = 1.0f / static_cast<float>(cfg.workers);
  Reference ref;
  for (std::size_t t = 1; t <= cfg.iterations; ++t) {
    w.step();
    for (std::size_t l = 0; l < w.nets[0]->arena().layer_count(); ++l) {
      const std::size_t n = w.nets[0]->arena().layer_grads(l).size();
      if (n == 0) continue;
      std::vector<std::span<const float>> views;
      for (auto& net : w.nets) views.push_back(net->arena().layer_grads(l));
      std::vector<float> sum(n);
      reduce_sum(views, sum);
      scale(inv, sum);
      for (auto& net : w.nets) copy(sum, net->arena().layer_grads(l));
    }
    for (auto& net : w.nets) {
      for (std::size_t l = 0; l < net->arena().layer_count(); ++l) {
        sgd_step(net->arena().layer_params(l), net->arena().layer_grads(l),
                 cfg.lr_at(t) * lr_scale);
      }
    }
    TracePoint p = eval.evaluate(w.nets[0]->arena());
    p.iteration = t;
    ref.trace.push_back(p);
  }
  // Layer by layer: a per-layer arena has no packed view.
  const ParamArena& arena = w.nets[0]->arena();
  for (std::size_t l = 0; l < arena.layer_count(); ++l) {
    const auto params = arena.layer_params(l);
    ref.final_params.insert(ref.final_params.end(), params.begin(),
                            params.end());
  }
  return ref;
}

void expect_bitwise(const std::vector<float>& got,
                    const std::vector<float>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(), got.size() * sizeof(float)))
      << what << ": final params differ";
}

void expect_trace_bitwise(const std::vector<TracePoint>& got,
                          const std::vector<TracePoint>& want,
                          const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].iteration, want[i].iteration) << what << " point " << i;
    EXPECT_EQ(0, std::memcmp(&got[i].loss, &want[i].loss, sizeof(double)))
        << what << " loss at point " << i;
    EXPECT_EQ(0,
              std::memcmp(&got[i].accuracy, &want[i].accuracy, sizeof(double)))
        << what << " accuracy at point " << i;
  }
}

void expect_runs_identical(const RunResult& a, const RunResult& b,
                           const char* what) {
  expect_bitwise(a.final_params, b.final_params, what);
  expect_trace_bitwise(a.trace, b.trace, what);
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const Phase phase = static_cast<Phase>(p);
    EXPECT_EQ(a.ledger.seconds(phase), b.ledger.seconds(phase))
        << what << " ledger " << phase_name(phase);
  }
  EXPECT_EQ(a.total_seconds, b.total_seconds) << what;
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.messages_sent, b.messages_sent) << what;
  EXPECT_EQ(a.bytes_sent, b.bytes_sent) << what;
}

std::uint64_t sync_seed(const AlgoContext& ctx, std::size_t i) {
  return ctx.config.seed * 7919 + i + 1;
}

void expect_sync_runs_match_serial(const AlgoContext& ctx,
                                   const GpuSystem& hw) {
  const auto seed = [&](std::size_t i) { return sync_seed(ctx, i); };
  const Reference easgd = serial_easgd(ctx, seed);
  const RunResult e = run_sync_easgd(ctx, hw, SyncEasgdVariant::kEasgd3);
  expect_bitwise(e.final_params, easgd.final_params, "Sync EASGD3");
  expect_trace_bitwise(e.trace, easgd.trace, "Sync EASGD3");
  const Reference sgd = serial_sgd(ctx, seed, 1.0f);
  const RunResult s = run_sync_sgd(ctx, hw);
  expect_bitwise(s.final_params, sgd.final_params, "Sync SGD");
  expect_trace_bitwise(s.trace, sgd.trace, "Sync SGD");
}

// (a) ------------------------------------------------------------------------

TEST(ReplicaParallel, SyncEasgdMatchesSerialReference) {
  Fixture f;
  const Reference ref = serial_easgd(
      f.ctx, [&](std::size_t i) { return sync_seed(f.ctx, i); });
  const RunResult r = run_sync_easgd(f.ctx, f.hw, SyncEasgdVariant::kEasgd3);
  expect_bitwise(r.final_params, ref.final_params, "Sync EASGD3");
  expect_trace_bitwise(r.trace, ref.trace, "Sync EASGD3");
}

TEST(ReplicaParallel, SyncSgdMatchesSerialReference) {
  Fixture f;
  const Reference ref = serial_sgd(
      f.ctx, [&](std::size_t i) { return sync_seed(f.ctx, i); }, 1.0f);
  const RunResult r = run_sync_sgd(f.ctx, f.hw);
  expect_bitwise(r.final_params, ref.final_params, "Sync SGD");
  expect_trace_bitwise(r.trace, ref.trace, "Sync SGD");
}

TEST(ReplicaParallel, ClusterSyncEasgdMatchesSerialReference) {
  Fixture f;
  const Reference ref = serial_easgd(f.ctx, [&](std::size_t i) {
    return f.ctx.config.seed * 15485863 + i;
  });
  const RunResult r = run_cluster_sync_easgd(f.ctx, f.timing);
  expect_bitwise(r.final_params, ref.final_params, "cluster Sync EASGD");
  expect_trace_bitwise(r.trace, ref.trace, "cluster Sync EASGD");
}

void expect_knl_matches_serial(const Fixture& f) {
  KnlPartitionConfig pcfg;
  pcfg.parts = kWorkers;
  pcfg.max_rounds = f.ctx.config.iterations;
  pcfg.target_accuracy = 2.0;  // never reached: every round runs
  pcfg.paper_model = paper_alexnet();
  const Reference ref = serial_sgd(
      f.ctx, [&](std::size_t i) { return f.ctx.config.seed * 15485863 + i; },
      static_cast<float>(kWorkers));  // scale_lr_with_parts
  const KnlPartitionResult r = run_knl_partition(f.ctx, KnlChip{}, pcfg);
  expect_bitwise(r.run.final_params, ref.final_params, "KNL partition");
  expect_trace_bitwise(r.run.trace, ref.trace, "KNL partition");
}

TEST(ReplicaParallel, KnlPartitionMatchesSerialReference) {
  expect_knl_matches_serial(Fixture{});
}

// A run of one round is exactly the round in which every replica first
// grows its buffers, concurrently on the pool like every later round.
TEST(ReplicaParallel, RoundOneOfEveryPooledRunnerMatchesSerialReference) {
  Fixture f;
  f.ctx.config.iterations = 1;
  expect_sync_runs_match_serial(f.ctx, f.hw);
  const Reference cluster = serial_easgd(f.ctx, [&](std::size_t i) {
    return f.ctx.config.seed * 15485863 + i;
  });
  const RunResult r = run_cluster_sync_easgd(f.ctx, f.timing);
  expect_bitwise(r.final_params, cluster.final_params, "cluster Sync EASGD");
  expect_trace_bitwise(r.trace, cluster.trace, "cluster Sync EASGD");
  expect_knl_matches_serial(f);
}

// (b) ------------------------------------------------------------------------

struct ConvCalls {
  std::uint64_t im2col, direct;
};

ConvCalls conv_calls() {
  auto& m = obs::metrics();
  return {m.counter(obs::names::kConvIm2colCalls).value(),
          m.counter(obs::names::kConvDirectCalls).value()};
}

ConvCalls conv_calls_of_run(const Fixture& f) {
  const ConvCalls before = conv_calls();
  run_sync_easgd(f.ctx, f.hw, SyncEasgdVariant::kEasgd3);
  const ConvCalls after = conv_calls();
  return {after.im2col - before.im2col, after.direct - before.direct};
}

TEST(ReplicaParallel, WorkersHonourTheCallersPinnedConvAlgo) {
  Fixture f;
  // Unpinned, the 12×12 first layer resolves to the direct kernel.
  ASSERT_GT(conv_calls_of_run(f).direct, 0u);

  kernel_config().conv_algo = ConvAlgo::kIm2col;
  const ConvCalls pinned = conv_calls_of_run(f);
  kernel_config().conv_algo = ConvAlgo::kAuto;
  EXPECT_EQ(pinned.direct, 0u)
      << "a worker ran the direct kernel despite the caller's kIm2col pin";
  // Two convs per forward: every worker every round, plus the evaluations.
  EXPECT_GE(pinned.im2col, 2 * kWorkers * kRounds);
}

// The caller is a lane: worker tasks that run on it get the worker rules,
// and the caller gets its own config and rank back, also when a task throws.
TEST(WorkerLanes, CallerKeepsItsKernelConfigAndRank) {
  constexpr std::size_t kLanes = 4;
  ThreadPool pool(kLanes);
  const std::thread::id caller = std::this_thread::get_id();
  kernel_config().gemm_threads = 3;
  kernel_config().conv_algo = ConvAlgo::kIm2col;
  const obs::RankScope rank(7);
  const auto expect_caller_unchanged = [] {
    EXPECT_EQ(kernel_config().gemm_threads, 3u);
    EXPECT_EQ(kernel_config().conv_algo, ConvAlgo::kIm2col);
    EXPECT_EQ(obs::thread_rank(), 7);
  };
  for (const bool throw_on_caller : {false, true}) {
    SCOPED_TRACE(throw_on_caller);
    // Each task waits for all the others, so the caller runs one of them.
    testing::Rendezvous meet(kLanes);
    std::atomic<std::size_t> on_caller{0};
    std::atomic<std::size_t> worker_rules{0};
    const auto run = [&] {
      worker_parallel_for(pool, kLanes, [&](std::size_t) {
        if (meet.arrive() && kernel_config().gemm_threads == 1 &&
            kernel_config().conv_algo == ConvAlgo::kIm2col &&
            obs::thread_rank() == 7) {
          worker_rules.fetch_add(1);
        }
        if (std::this_thread::get_id() != caller) return;
        on_caller.fetch_add(1);
        DS_CHECK(!throw_on_caller, "task on the caller failed");
      });
    };
    if (throw_on_caller) {
      EXPECT_THROW(run(), Error);
    } else {
      run();
    }
    EXPECT_EQ(on_caller.load(), 1u);
    EXPECT_EQ(worker_rules.load(), kLanes);
    expect_caller_unchanged();
  }
  // One lane: the tasks run on the caller with its own config.
  ThreadPool one(1);
  std::size_t own_config = 0;
  worker_parallel_for(one, 3, [&](std::size_t) {
    own_config += kernel_config().gemm_threads == 3 ? 1 : 0;
  });
  EXPECT_EQ(own_config, 3u);
  expect_caller_unchanged();
  kernel_config() = KernelConfig{};
}

// A run pinned to one CPU gets one lane, whatever the machine has.
TEST(WorkerLanes, LaneCountFollowsTheAffinityMask) {
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(hardware_lanes(),
            static_cast<std::size_t>(CPU_COUNT(&saved)));
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const std::size_t pinned_lanes = hardware_lanes();
  const std::size_t pinned_workers = worker_threads(4);
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned_lanes, 1u);
  EXPECT_EQ(pinned_workers, 1u);
}

// (c) ------------------------------------------------------------------------

TEST(ReplicaParallel, RepeatedRunsAreBitIdentical) {
  Fixture f;
  const auto runs = [&] {
    return std::vector<RunResult>{
        run_sync_easgd(f.ctx, f.hw, SyncEasgdVariant::kEasgd3),
        run_sync_sgd(f.ctx, f.hw),
        run_cluster_sync_easgd(f.ctx, f.timing),
    };
  };
  const std::vector<RunResult> first = runs();
  const std::vector<RunResult> again = runs();
  // Intra-GEMM threading on the caller does not reach the workers, which
  // run single-threaded kernels from the first round on.
  kernel_config().gemm_threads = 3;
  const std::vector<RunResult> threaded = runs();
  kernel_config().gemm_threads = 1;
  for (std::size_t i = 0; i < first.size(); ++i) {
    expect_runs_identical(again[i], first[i], first[i].method.c_str());
    expect_runs_identical(threaded[i], first[i], first[i].method.c_str());
  }
}

// (d) ------------------------------------------------------------------------

TEST(ReplicaProbe, RowsFillingNeitherABatchNorAChunkMatchSerial) {
  // 50 rows: shares of 17/17/16 in batches of 3 with a short last batch,
  // all inside one 64-row chunk. 100 rows: a chunk boundary inside replica
  // 1's share, and a short last chunk.
  for (const std::size_t rows : {50u, 100u}) {
    SCOPED_TRACE(rows);
    Fixture f;
    f.ctx.config.batch_size = 3;
    f.ctx.config.eval_samples = rows;
    expect_sync_runs_match_serial(f.ctx, f.hw);
  }
}

TEST(ReplicaProbe, MoreWorkersThanHardwareThreadsMatchSerial) {
  Fixture f;
  const std::size_t workers = hardware_lanes() + 2;
  f.ctx.config.workers = workers;
  f.ctx.config.iterations = 2;
  GpuSystemConfig c;
  c.gpus = workers;
  const GpuSystem hw(c, paper_lenet(), 2.0 * 12.0 * 12.0 * 4.0);
  expect_sync_runs_match_serial(f.ctx, hw);
}

TEST(ReplicaProbe, RoundOneCrashProbesTheInitialWeightsBeforeAnyStep) {
  Fixture f;
  FaultPlan crash;
  crash.with_crash(1, 1e-12);  // inside round 1: its math never commits
  const std::unique_ptr<Network> initial = make_model();
  const auto w0 = initial->arena().full_params();
  const std::vector<float> initial_params(w0.begin(), w0.end());
  Evaluator eval(f.ctx.factory, *f.ctx.test, f.ctx.config.eval_samples);
  TracePoint want = eval.evaluate(initial->arena());
  want.iteration = 0;

  for (const RunResult& r :
       {run_sync_easgd(f.ctx, f.hw, SyncEasgdVariant::kEasgd3, crash),
        run_sync_sgd(f.ctx, f.hw, crash)}) {
    SCOPED_TRACE(r.method);
    EXPECT_TRUE(r.aborted);
    EXPECT_EQ(r.iterations, 0u);
    expect_bitwise(r.final_params, initial_params, r.method.c_str());
    expect_trace_bitwise(r.trace, {want}, r.method.c_str());
  }
}

TEST(ReplicaProbe, PerLayerSyncSgdMatchesSerial) {
  Fixture f;
  f.ctx.factory = [] { return make_model(PackMode::kPerLayer); };
  f.ctx.config.eval_samples = 100;
  const Reference ref = serial_sgd(
      f.ctx, [&](std::size_t i) { return sync_seed(f.ctx, i); }, 1.0f);
  const RunResult r = run_sync_sgd(f.ctx, f.hw);
  expect_trace_bitwise(r.trace, ref.trace, "per-layer Sync SGD");
  // The weights are reported packed whatever the arena's layout.
  expect_bitwise(r.final_params, ref.final_params, "per-layer Sync SGD");
}

}  // namespace
}  // namespace ds
