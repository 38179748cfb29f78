// Determinism regression suite: the same seed + config must produce the
// IDENTICAL RunResult — loss curve, virtual times, and final parameters —
// for every method in the Figure 8 family, so future fault-injection or
// threading changes cannot silently introduce nondeterminism into the
// deterministic paths.
//
// The sync family is deterministic at any worker count. The async family
// is only deterministic with a single worker (by design: with P > 1 real
// thread interleavings ARE the algorithm, §8), so those methods run here
// with workers = 1 — which also keeps the Hogwild variants race-free.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/fabric_algorithms.hpp"
#include "core/methods.hpp"
#include "data/dataset.hpp"
#include "nn/models.hpp"
#include "obs/monitor/monitor.hpp"
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
    ctx.config.iterations = 60;
    ctx.config.batch_size = 16;
    ctx.config.eval_every = 20;
    ctx.config.eval_samples = 64;
    ctx.config.learning_rate = 0.05f;
  }

  void set_workers(std::size_t workers) {
    ctx.config.workers = workers;
    ctx.config.rho =
        0.9f / (static_cast<float>(workers) * ctx.config.learning_rate);
  }
};

bool uses_thread_per_worker(Method method) {
  switch (method) {
    case Method::kOriginalEasgd:
    case Method::kSyncEasgd:
      return false;
    default:
      return true;  // the async/Hogwild family
  }
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].iteration, b.trace[i].iteration);
    EXPECT_EQ(a.trace[i].vtime, b.trace[i].vtime);
    EXPECT_EQ(a.trace[i].loss, b.trace[i].loss);
    EXPECT_EQ(a.trace[i].accuracy, b.trace[i].accuracy);
  }
  EXPECT_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.final_params, b.final_params);
}

TEST(Determinism, EveryMethodReplaysBitwiseIdentically) {
  Fixture f;
  for (const Method method : all_methods()) {
    SCOPED_TRACE(method_name(method));
    f.set_workers(uses_thread_per_worker(method) ? 1 : 3);
    const RunResult a = run_method(method, f.ctx, f.hw);
    const RunResult b = run_method(method, f.ctx, f.hw);
    expect_identical(a, b);
    ASSERT_FALSE(a.trace.empty());
  }
}

TEST(Determinism, FabricSpmdRunReplaysBitwiseIdentically) {
  // Multi-threaded, but blocking matched receives make the reduction order
  // a pure function of the tree shape — the run must replay exactly.
  Fixture f;
  f.set_workers(4);
  const FabricClusterConfig cluster;
  const RunResult a = run_fabric_easgd(f.ctx, cluster);
  const RunResult b = run_fabric_easgd(f.ctx, cluster);
  expect_identical(a, b);
  ASSERT_FALSE(a.final_params.empty());
}

TEST(Determinism, FabricParameterServerDeterministicWithOneWorker) {
  Fixture f;
  f.set_workers(1);
  const FabricClusterConfig cluster;
  const RunResult a = run_fabric_async_easgd(f.ctx, cluster);
  const RunResult b = run_fabric_async_easgd(f.ctx, cluster);
  expect_identical(a, b);
}

// One virtual-time-stamped event: everything deterministic about it (the
// wall stamp is deliberately excluded — real time differs run to run).
struct VEvent {
  std::string category;
  std::string name;
  obs::EventType type;
  double vtime;
  double value;
  double aux;

  bool operator==(const VEvent& o) const {
    auto norm = [](double x) { return std::isnan(x) ? -1.0e308 : x; };
    return category == o.category && name == o.name && type == o.type &&
           norm(vtime) == norm(o.vtime) && norm(value) == norm(o.value) &&
           norm(aux) == norm(o.aux);
  }
};

/// Per-rank virtual event sequences of the current trace snapshot. Each
/// fabric rank records on exactly one thread, so grouping by rank recovers
/// a deterministic per-rank program order even though thread registration
/// order varies run to run. Wall-only events (NaN vtime) are skipped.
std::map<std::int64_t, std::vector<VEvent>> virtual_sequences() {
  std::map<std::int64_t, std::vector<VEvent>> by_rank;
  for (const obs::ThreadEvents& te : obs::snapshot()) {
    for (const obs::Event& e : te.events) {
      if (std::isnan(e.vtime)) continue;
      by_rank[e.rank].push_back(
          VEvent{e.category, e.name, e.type, e.vtime, e.value, e.aux});
    }
  }
  return by_rank;
}

/// One traced run: the result and its per-rank virtual event sequences.
std::pair<RunResult, std::map<std::int64_t, std::vector<VEvent>>> traced_run(
    const std::function<RunResult()>& run) {
  obs::set_tracing_enabled(false);
  obs::reset();
  obs::set_tracing_enabled(true);
  const RunResult r = run();
  auto seq = virtual_sequences();
  obs::set_tracing_enabled(false);
  obs::reset();
  return std::make_pair(r, std::move(seq));
}

void expect_identical_sequences(
    const std::map<std::int64_t, std::vector<VEvent>>& seq_a,
    const std::map<std::int64_t, std::vector<VEvent>>& seq_b) {
  ASSERT_EQ(seq_a.size(), seq_b.size());
  for (const auto& [rank, events_a] : seq_a) {
    const auto it = seq_b.find(rank);
    ASSERT_NE(it, seq_b.end()) << "rank " << rank << " missing in rerun";
    const auto& events_b = it->second;
    ASSERT_EQ(events_a.size(), events_b.size()) << "rank " << rank;
    for (std::size_t i = 0; i < events_a.size(); ++i) {
      EXPECT_TRUE(events_a[i] == events_b[i])
          << "rank " << rank << " event " << i << ": " << events_a[i].category
          << "/" << events_a[i].name << " vt " << events_a[i].vtime << " vs "
          << events_b[i].name << " vt " << events_b[i].vtime;
    }
    EXPECT_FALSE(events_a.empty()) << "rank " << rank;
  }
}

TEST(Determinism, TracedFaultyRunsEmitIdenticalVirtualEventSequences) {
  // Satellite of the obs subsystem: the trace itself must be deterministic
  // in the virtual domain — same seed, same faults ⇒ the same per-rank
  // sequence of virtual-time events (spans, drops, retransmit stamps),
  // event for event. Wall times differ; virtual times must not.
  Fixture f;
  f.set_workers(4);
  FabricClusterConfig cluster;
  cluster.faults.with_drop(0.05).with_straggler(1, 2.0);
  cluster.faults.max_send_attempts = 12;

  auto run = [&] { return run_fabric_easgd(f.ctx, cluster); };
  const auto [ra, seq_a] = traced_run(run);
  const auto [rb, seq_b] = traced_run(run);
  expect_identical(ra, rb);
  EXPECT_EQ(ra.messages_sent, rb.messages_sent);
  EXPECT_EQ(ra.bytes_sent, rb.bytes_sent);
  EXPECT_EQ(ra.retransmits, rb.retransmits);
  expect_identical_sequences(seq_a, seq_b);
  EXPECT_EQ(obs::dropped_events(), 0u);
}

TEST(Determinism, CenteredFabricRunsEmitIdenticalEventSequences) {
  // DESIGN.md §10: in deterministic mode the bucketed pipeline's entire
  // message schedule — which bucket ships when, who is served first, every
  // virtual-time stamp — is a pure function of (seed, config). So is
  // Algorithm 1's fixed round-robin sweep over matched receives, plain or
  // bucketed. Same-seed runs must emit the identical per-rank virtual event
  // sequence, not just the same result.
  using Runner = RunResult (*)(const AlgoContext&, const FabricClusterConfig&);
  const struct {
    const char* name;
    Runner run;
    std::size_t bucket_bytes;
  } cases[] = {
      {"bucketed deterministic", &run_fabric_bucketed_easgd, 2048},
      {"round-robin", &run_fabric_round_robin_easgd, 0},
      {"round-robin bucketed", &run_fabric_round_robin_easgd, 2048},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    Fixture f;
    f.set_workers(3);
    f.ctx.config.bucketing.bucket_bytes = c.bucket_bytes;  // 2048 -> 2 buckets
    f.ctx.config.bucketing.mode = BucketMode::kDeterministic;
    const FabricClusterConfig cluster;

    auto run = [&] { return c.run(f.ctx, cluster); };
    const auto [ra, seq_a] = traced_run(run);
    const auto [rb, seq_b] = traced_run(run);
    expect_identical(ra, rb);
    EXPECT_EQ(ra.messages_sent, rb.messages_sent);
    EXPECT_EQ(ra.bytes_sent, rb.bytes_sent);
    ASSERT_EQ(seq_a.size(), 4u);  // center + 3 workers
    expect_identical_sequences(seq_a, seq_b);
  }
}

TEST(Determinism, InstalledMonitorIsObservationOnly) {
  // The health monitor watches; it must never steer. A faulted run with the
  // monitor installed has to replay the unmonitored run bit for bit, and
  // two monitored runs must agree on every alert and on the serialized
  // postmortem bundle byte for byte (the monitor half of the contract).
  Fixture f;
  f.set_workers(4);
  FabricClusterConfig cluster;
  cluster.faults.with_drop(0.05).with_straggler(1, 3.0);
  cluster.faults.max_send_attempts = 12;

  const RunResult bare = run_fabric_easgd(f.ctx, cluster);

  obs::monitor::MonitorConfig mcfg;
  mcfg.sample_interval_vs = 0.005;
  auto monitored_run = [&] {
    auto monitor = std::make_unique<obs::monitor::Monitor>(mcfg);
    const obs::monitor::InstallScope scope(*monitor);
    const RunResult r = run_fabric_easgd(f.ctx, cluster);
    return std::make_pair(r, std::move(monitor));
  };
  const auto [ra, ma] = monitored_run();
  const auto [rb, mb] = monitored_run();

  expect_identical(bare, ra);
  expect_identical(ra, rb);

  ASSERT_EQ(ma->alerts().size(), mb->alerts().size());
  for (std::size_t i = 0; i < ma->alerts().size(); ++i) {
    EXPECT_EQ(ma->alerts()[i].kind, mb->alerts()[i].kind);
    EXPECT_EQ(ma->alerts()[i].rank, mb->alerts()[i].rank);
    EXPECT_EQ(ma->alerts()[i].vtime, mb->alerts()[i].vtime);
    EXPECT_EQ(ma->alerts()[i].detail, mb->alerts()[i].detail);
  }
  EXPECT_EQ(ma->bundle_json(), mb->bundle_json());
}

TEST(Determinism, ActiveFaultPlanReplaysBitwiseIdentically) {
  // Fault injection itself must be deterministic: same plan seed ⇒ the
  // same drops, the same retries, the same virtual-time numbers.
  Fixture f;
  f.set_workers(4);
  FabricClusterConfig cluster;
  cluster.faults.with_drop(0.05).with_jitter(0.25);
  const RunResult a = run_fabric_easgd(f.ctx, cluster);
  const RunResult b = run_fabric_easgd(f.ctx, cluster);
  expect_identical(a, b);
  EXPECT_FALSE(a.aborted);  // drops are repaired, nobody dies
}

}  // namespace
}  // namespace ds
