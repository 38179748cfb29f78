// Serving front-end battery (DESIGN.md §12): workload generator
// determinism and shape, batcher/admission unit behaviour, same-seed
// bitwise determinism of full serving runs, the served answers against a
// serial batch-1 oracle and the digest's sensitivity to them, the forward
// lanes (lane count, per-replica weights, timing-only runs), request-pool
// validation, overload shedding with bounded queues, batching goodput,
// autoscaling, and the trace-lifecycle rollup's consistency with the
// server's own accounting (including a Chrome-export round trip).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.hpp"
#include "nn/models.hpp"
#include "nn/serialize.hpp"
#include "obs/analysis/analysis.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "support/thread_pool.hpp"

namespace ds::serve {
namespace {

namespace analysis = obs::analysis;

// ---------------------------------------------------------------------------
// Workload generator.
// ---------------------------------------------------------------------------

TEST(ServeWorkload, PoissonSameSeedSameTrace) {
  WorkloadConfig cfg;
  cfg.pattern = ArrivalPattern::kPoisson;
  cfg.rate_rps = 2000.0;
  cfg.duration_s = 1.0;
  cfg.seed = 7;
  const std::vector<double> a = generate_arrivals(cfg);
  const std::vector<double> b = generate_arrivals(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);

  cfg.seed = 8;
  const std::vector<double> c = generate_arrivals(cfg);
  EXPECT_NE(a, c);
}

TEST(ServeWorkload, PoissonMeanRateAndMonotoneTimes) {
  WorkloadConfig cfg;
  cfg.rate_rps = 2000.0;
  cfg.duration_s = 1.0;
  cfg.seed = 42;
  const std::vector<double> a = generate_arrivals(cfg);
  // Poisson(2000): 5σ band is ±5·√2000 ≈ ±224.
  EXPECT_GT(a.size(), 2000u - 224u);
  EXPECT_LT(a.size(), 2000u + 224u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_GE(a[i], 0.0);
    ASSERT_LT(a[i], cfg.duration_s);
    if (i > 0) {
      ASSERT_GT(a[i], a[i - 1]);
    }
  }
}

TEST(ServeWorkload, BurstyConcentratesArrivalsInBursts) {
  WorkloadConfig cfg;
  cfg.pattern = ArrivalPattern::kBursty;
  cfg.rate_rps = 1000.0;
  cfg.duration_s = 1.0;
  cfg.seed = 3;  // bursts: 4× base for 0.05 s every 0.25 s
  const std::vector<double> a = generate_arrivals(cfg);
  std::size_t in_burst = 0;
  for (const double t : a) {
    if (std::fmod(t, cfg.burst_every_s) < cfg.burst_length_s) ++in_burst;
  }
  // Burst windows are 20% of the time but run at 4× the base rate: expect
  // roughly 4000·0.2 = 800 of the ~1600 arrivals inside them (50%), far
  // above the 20% a flat trace would put there.
  EXPECT_GT(static_cast<double>(in_burst),
            0.35 * static_cast<double>(a.size()));
}

TEST(ServeWorkload, StepRaisesSecondHalfRate) {
  WorkloadConfig cfg;
  cfg.pattern = ArrivalPattern::kStep;
  cfg.rate_rps = 1000.0;
  cfg.duration_s = 1.0;
  cfg.step_at_s = 0.5;  // 4× base after the step
  cfg.seed = 5;
  const std::vector<double> a = generate_arrivals(cfg);
  std::size_t before = 0;
  for (const double t : a) {
    if (t < cfg.step_at_s) ++before;
  }
  const std::size_t after = a.size() - before;
  // ~500 before vs ~2000 after.
  EXPECT_GT(after, 3 * before);
}

// Inputs that would hang the generator (an infinite rate draws zero gaps,
// an infinite duration never ends) or reach UB are typed errors.
TEST(ServeWorkload, NonFiniteRatesAndDurationsThrow) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto expect_throw = [](ArrivalPattern pattern, auto&& set) {
    WorkloadConfig cfg;
    cfg.pattern = pattern;
    cfg.rate_rps = 1000.0;
    cfg.duration_s = 0.01;
    set(cfg);
    EXPECT_THROW(generate_arrivals(cfg), Error);
  };
  expect_throw(ArrivalPattern::kPoisson,
               [](WorkloadConfig& c) { c.rate_rps = kInf; });
  expect_throw(ArrivalPattern::kPoisson,
               [](WorkloadConfig& c) { c.duration_s = kInf; });
  expect_throw(ArrivalPattern::kPoisson,
               [](WorkloadConfig& c) { c.rate_rps = std::nan(""); });
  expect_throw(ArrivalPattern::kBursty,
               [](WorkloadConfig& c) { c.burst_rate_rps = kInf; });
  expect_throw(ArrivalPattern::kStep,
               [](WorkloadConfig& c) { c.step_rate_rps = kInf; });
  // Finite, but more expected draws than a trace may hold.
  expect_throw(ArrivalPattern::kPoisson,
               [](WorkloadConfig& c) { c.rate_rps = 1e300; });
}

TEST(ServeResultQuantile, NanQuantileThrows) {
  ServeResult r;
  RequestRecord served;
  served.outcome = Outcome::kServed;
  served.reply = 2e-3;
  r.requests.push_back(served);
  r.served = 1;
  EXPECT_DOUBLE_EQ(r.latency_quantile_ms(0.5), 2.0);
  EXPECT_THROW(r.latency_quantile_ms(std::nan("")), Error);
}

// ---------------------------------------------------------------------------
// Batcher + admission unit behaviour.
// ---------------------------------------------------------------------------

TEST(ServeBatcher, SizeRuleFiresAtMaxBatch) {
  Batcher b(BatchPolicy{4, 1.0});
  for (std::uint64_t i = 0; i < 3; ++i) {
    b.push(PendingRequest{i, 0.0, 1.0});
  }
  EXPECT_FALSE(b.should_dispatch(0.0));  // 3 < 4 and no delay yet
  b.push(PendingRequest{3, 0.0, 1.0});
  EXPECT_TRUE(b.should_dispatch(0.0));  // size rule
  const auto batch = b.take_batch();
  ASSERT_EQ(batch.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(batch[i].id, i);  // FIFO
  EXPECT_TRUE(b.empty());
}

TEST(ServeBatcher, DelayRuleShipsPartialBatch) {
  Batcher b(BatchPolicy{8, 2e-3});
  b.push(PendingRequest{0, 1.0, 2.0});
  EXPECT_FALSE(b.should_dispatch(1.0));
  EXPECT_FALSE(b.should_dispatch(1.0 + 1e-3));
  EXPECT_DOUBLE_EQ(b.next_deadline(), 1.0 + 2e-3);
  EXPECT_TRUE(b.should_dispatch(1.0 + 2e-3));  // delay rule
  EXPECT_EQ(b.take_batch().size(), 1u);
}

TEST(ServeAdmission, AdmitsFeasibleShedsInfeasible) {
  const BatchPolicy policy{8, 2e-3};
  const double service = 1e-3;  // full batch
  const double reply = 1e-4;
  // Idle server, empty queue: est = service + reply = 1.1 ms.
  EXPECT_TRUE(admission_feasible(0.0, 5e-3, 0, 1, 0.0, policy, service, reply));
  EXPECT_FALSE(
      admission_feasible(0.0, 1e-3, 0, 1, 0.0, policy, service, reply));
  // 63 ahead + this one = 8 full batches on one replica: est = 8.1 ms.
  EXPECT_TRUE(
      admission_feasible(0.0, 10e-3, 63, 1, 0.0, policy, service, reply));
  EXPECT_FALSE(
      admission_feasible(0.0, 5e-3, 63, 1, 0.0, policy, service, reply));
  // Two replicas halve the drain time.
  EXPECT_TRUE(
      admission_feasible(0.0, 5e-3, 63, 2, 0.0, policy, service, reply));
  // A busy replica delays the start.
  EXPECT_FALSE(
      admission_feasible(0.0, 5e-3, 63, 2, 2e-3, policy, service, reply));
}

// ---------------------------------------------------------------------------
// Full serving runs.
// ---------------------------------------------------------------------------

GpuSystem lenet_device() {
  // Paper-scale LeNet timing on the default device model: batch-1 service
  // ≈ 0.47 ms (launch-overhead dominated), batch-8 ≈ 0.70 ms — the 5×
  // amortization dynamic batching exists to harvest.
  return GpuSystem(GpuSystemConfig{}, paper_lenet(),
                   /*sample_bytes=*/28.0 * 28.0 * 4.0);
}

NetworkFactory lenet_factory(std::uint64_t seed) {
  return [seed]() {
    Rng rng(seed);
    return make_lenet_s(rng);
  };
}

struct TraceGuard {
  TraceGuard() {
    obs::set_tracing_enabled(false);
    obs::reset();
    obs::set_tracing_enabled(true);
  }
  ~TraceGuard() {
    obs::set_tracing_enabled(false);
    obs::reset();
  }
};

WorkloadConfig poisson(double rate, double duration, std::uint64_t seed) {
  WorkloadConfig cfg;
  cfg.rate_rps = rate;
  cfg.duration_s = duration;
  cfg.seed = seed;
  return cfg;
}

TEST(Serve, SameSeedRunsAreBitwiseDeterministic) {
  const TrainTest data = mnist_like(/*seed=*/9, /*train=*/64, /*test=*/16);
  const std::vector<double> arrivals =
      generate_arrivals(poisson(2000.0, 0.05, 11));

  ServerConfig cfg;
  cfg.replicas = 2;

  const auto run_once = [&](analysis::TraceData* trace) {
    TraceGuard guard;
    Server server(lenet_factory(77), lenet_device(), cfg);
    ServeResult r = server.run(arrivals, data.train);
    *trace = analysis::ingest_snapshot(obs::snapshot());
    return r;
  };

  analysis::TraceData ta, tb;
  const ServeResult a = run_once(&ta);
  const ServeResult b = run_once(&tb);

  EXPECT_EQ(a.outcome_digest(), b.outcome_digest());
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_DOUBLE_EQ(a.goodput_rps, b.goodput_rps);

  // Per-request fields are bitwise equal...
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].outcome, b.requests[i].outcome);
    EXPECT_EQ(a.requests[i].replica, b.requests[i].replica);
    EXPECT_EQ(a.requests[i].batch_id, b.requests[i].batch_id);
    EXPECT_EQ(a.requests[i].predicted, b.requests[i].predicted);
    ASSERT_EQ(a.requests[i].reply, b.requests[i].reply) << "request " << i;
  }

  // ...and so are the virtual trace event sequences, rank by rank.
  ASSERT_EQ(ta.instants.size(), tb.instants.size());
  for (std::size_t i = 0; i < ta.instants.size(); ++i) {
    ASSERT_EQ(ta.instants[i].rank, tb.instants[i].rank);
    ASSERT_EQ(ta.instants[i].name, tb.instants[i].name);
    ASSERT_EQ(ta.instants[i].vtime, tb.instants[i].vtime) << "instant " << i;
    ASSERT_EQ(ta.instants[i].value, tb.instants[i].value);
    ASSERT_EQ(ta.instants[i].aux, tb.instants[i].aux);
  }
  ASSERT_EQ(ta.vspans.size(), tb.vspans.size());
  for (std::size_t i = 0; i < ta.vspans.size(); ++i) {
    ASSERT_EQ(ta.vspans[i].rank, tb.vspans[i].rank);
    ASSERT_EQ(ta.vspans[i].name, tb.vspans[i].name);
    ASSERT_EQ(ta.vspans[i].begin, tb.vspans[i].begin) << "vspan " << i;
    ASSERT_EQ(ta.vspans[i].duration, tb.vspans[i].duration);
  }
}

// Argmax (first maximal logit) of `net`'s batch-1 forward on request id's
// pool sample: the serial reference for a served answer.
std::int32_t batch1_argmax(Network& net, const Dataset& pool,
                           std::uint64_t id) {
  const Shape sample_shape = pool.sample_shape();
  std::vector<std::size_t> dims{1};
  dims.insert(dims.end(), sample_shape.dims().begin(),
              sample_shape.dims().end());
  Tensor one{Shape(dims)};
  const std::size_t numel = pool.sample_numel();
  std::memcpy(one.data(), pool.images.data() + (id % pool.size()) * numel,
              numel * sizeof(float));
  const Tensor& logits = net.infer(one);
  return static_cast<std::int32_t>(
      std::max_element(logits.data(), logits.data() + logits.numel()) -
      logits.data());
}

TEST(Serve, ServedAnswersMatchSerialBatchOneOracle) {
  const TrainTest data = mnist_like(/*seed=*/9, /*train=*/64, /*test=*/16);
  // Quiet spells ship partial batches; 40k rps bursts overload the two
  // replicas (~23k rps at batch 8), and the 3 ms deadline sheds some.
  WorkloadConfig wl;
  wl.pattern = ArrivalPattern::kBursty;
  wl.rate_rps = 3000.0;
  wl.burst_rate_rps = 40000.0;
  wl.burst_every_s = 0.02;
  wl.burst_length_s = 0.005;
  wl.duration_s = 0.06;
  wl.seed = 29;
  const std::vector<double> arrivals = generate_arrivals(wl);

  ServerConfig cfg;
  cfg.replicas = 2;
  cfg.admission.deadline_s = 3e-3;
  Server server(lenet_factory(77), lenet_device(), cfg);
  const ServeResult r = server.run(arrivals, data.train);
  ASSERT_GT(r.served, 0u);
  ASSERT_GT(r.shed, 0u);
  // Answers come out of coalesced batches of mixed sizes.
  EXPECT_GT(r.mean_batch, 1.0);
  EXPECT_LT(r.mean_batch, static_cast<double>(cfg.batch.max_batch));

  const auto oracle = lenet_factory(77)();
  std::set<std::int32_t> classes;
  for (const RequestRecord& req : r.requests) {
    if (req.outcome == Outcome::kServed) {
      ASSERT_EQ(req.predicted, batch1_argmax(*oracle, data.train, req.id))
          << "request " << req.id;
      classes.insert(req.predicted);
    } else {
      ASSERT_EQ(req.predicted, -1) << "shed request " << req.id;
    }
  }
  EXPECT_GE(classes.size(), 2u);  // the untrained model's answers do vary
}

// Forward lanes. The server builds its lane networks with the replica
// factory, so a factory that counts its calls counts replicas + lanes.
// Replica r of a counting factory gets seed base + r, so replicas hold
// different weights when no checkpoint overwrites them.
struct CountingFactory {
  std::shared_ptr<std::size_t> calls = std::make_shared<std::size_t>(0);
  std::uint64_t base_seed = 100;

  NetworkFactory factory() const {
    return [calls = calls, base = base_seed]() {
      Rng rng(base + (*calls)++);
      return make_lenet_s(rng);
    };
  }
};

// Batch-1 oracles for the first `replicas` networks a counting factory
// builds (the server's replicas, built before any lane).
std::vector<std::unique_ptr<Network>> replica_oracles(
    const CountingFactory& counting, std::size_t replicas) {
  std::vector<std::unique_ptr<Network>> oracles;
  for (std::uint64_t i = 0; i < replicas; ++i) {
    Rng rng(counting.base_seed + i);
    oracles.push_back(make_lenet_s(rng));
  }
  return oracles;
}

// Every served answer equals the batch-1 argmax of its own replica's
// weights (oracles[replica]); shed requests predict -1.
void expect_answers_match_oracles(
    const ServeResult& r, const Dataset& pool,
    const std::vector<std::unique_ptr<Network>>& oracles) {
  for (const RequestRecord& req : r.requests) {
    if (req.outcome == Outcome::kServed) {
      ASSERT_GE(req.replica, 0);
      ASSERT_EQ(req.predicted,
                batch1_argmax(*oracles[static_cast<std::size_t>(req.replica)],
                              pool, req.id))
          << "request " << req.id << " on replica " << req.replica;
    } else {
      ASSERT_EQ(req.predicted, -1) << "shed request " << req.id;
    }
  }
}

TEST(ServeLanes, OneReplicaRunsOnEveryHardwareThread) {
  const TrainTest data = mnist_like(/*seed=*/9, /*train=*/64, /*test=*/16);
  const std::size_t threads = hardware_lanes();
  // Batch-1 dispatch: one batch per request, at least one per thread.
  const std::vector<double> arrivals = generate_arrivals(
      poisson(2000.0, 0.05 + 1e-3 * static_cast<double>(threads), 13));
  const CountingFactory counting;
  ServerConfig cfg;
  cfg.batch.max_batch = 1;
  Server server(counting.factory(), lenet_device(), cfg);
  const ServeResult r = server.run(arrivals, data.train);
  ASSERT_EQ(r.served, arrivals.size());
  ASSERT_GE(r.batches, threads);
  EXPECT_EQ(*counting.calls, 1 + threads);  // the replica + one per lane

  expect_answers_match_oracles(r, data.train, replica_oracles(counting, 1));
}

TEST(ServeLanes, EachAnswerUsesItsOwnReplicasWeights) {
  const TrainTest data = mnist_like(/*seed=*/9, /*train=*/64, /*test=*/16);
  // Overload spreads batches over all three replicas.
  const std::vector<double> arrivals =
      generate_arrivals(poisson(20000.0, 0.02, 19));
  const CountingFactory counting;
  ServerConfig cfg;
  cfg.replicas = 3;
  Server server(counting.factory(), lenet_device(), cfg);
  const ServeResult r = server.run(arrivals, data.train);

  const auto oracles = replica_oracles(counting, cfg.replicas);
  std::set<std::int64_t> used;
  std::size_t weights_matter = 0;  // answers replica 0's weights would change
  for (const RequestRecord& req : r.requests) {
    if (req.outcome != Outcome::kServed) continue;
    used.insert(req.replica);
    if (req.replica != 0 &&
        batch1_argmax(*oracles[0], data.train, req.id) !=
            batch1_argmax(*oracles[static_cast<std::size_t>(req.replica)],
                          data.train, req.id)) {
      ++weights_matter;
    }
  }
  ASSERT_EQ(used.size(), cfg.replicas);
  ASSERT_GT(weights_matter, 0u);
  expect_answers_match_oracles(r, data.train, oracles);

  // A second run on the warm lanes reloads the weights it needs.
  const ServeResult again = server.run(arrivals, data.train);
  EXPECT_EQ(again.outcome_digest(), r.outcome_digest());
  expect_answers_match_oracles(again, data.train, oracles);
}

TEST(ServeLanes, FewerBatchesThanThreadsBuildOneLanePerBatch) {
  const TrainTest data = mnist_like(/*seed=*/9, /*train=*/64, /*test=*/16);
  // A simultaneous burst of two max-size batches, one per replica.
  const std::vector<double> arrivals(16, 0.0);
  const CountingFactory counting;
  ServerConfig cfg;
  cfg.replicas = 2;
  Server server(counting.factory(), lenet_device(), cfg);
  const ServeResult r = server.run(arrivals, data.train);
  ASSERT_EQ(r.batches, 2u);
  EXPECT_EQ(*counting.calls,
            cfg.replicas + std::min<std::size_t>(hardware_lanes(), 2));

  expect_answers_match_oracles(r, data.train,
                               replica_oracles(counting, cfg.replicas));
}

TEST(ServeLanes, TimingOnlyRunBuildsNoLane) {
  const TrainTest data = mnist_like(/*seed=*/9, /*train=*/64, /*test=*/16);
  const std::vector<double> arrivals =
      generate_arrivals(poisson(2000.0, 0.05, 11));
  const CountingFactory counting;
  ServerConfig cfg;
  cfg.replicas = 2;
  cfg.run_model = false;
  Server server(counting.factory(), lenet_device(), cfg);
  const ServeResult r = server.run(arrivals, data.train);
  ASSERT_GT(r.served, 0u);
  EXPECT_EQ(*counting.calls, cfg.replicas);
  for (const RequestRecord& req : r.requests) {
    ASSERT_EQ(req.predicted, -1) << "request " << req.id;
  }
}

// A classifier change that flips an answer must move the digest, while the
// scheduling (outcomes, replicas, batches) stays exactly as it was.
TEST(Serve, DigestCatchesAChangedAnswer) {
  const TrainTest data = mnist_like(/*seed=*/9, /*train=*/64, /*test=*/16);
  const std::vector<double> arrivals =
      generate_arrivals(poisson(2000.0, 0.05, 11));
  const std::string base = ::testing::TempDir() + "/serve_base.dscp";
  const std::string raised = ::testing::TempDir() + "/serve_raised.dscp";

  const auto net = lenet_factory(77)();
  save_checkpoint(*net, base);
  ServerConfig cfg;
  cfg.replicas = 2;
  cfg.checkpoint_path = base;
  Server base_server(lenet_factory(5), lenet_device(), cfg);
  const ServeResult a = base_server.run(arrivals, data.train);
  ASSERT_EQ(a.requests.front().outcome, Outcome::kServed);

  // LeNet's classifier is FC(64 → 10): [10 × 64] weights, then 10 biases.
  // Raise the bias of a class request 0 does not predict until it wins.
  constexpr std::int32_t kClasses = 10;
  const std::int32_t target = (a.requests.front().predicted + 1) % kClasses;
  const auto classifier =
      net->arena().layer_params(net->arena().layer_count() - 1);
  classifier[classifier.size() - kClasses + target] += 1e3f;
  save_checkpoint(*net, raised);
  cfg.checkpoint_path = raised;
  Server raised_server(lenet_factory(5), lenet_device(), cfg);
  const ServeResult b = raised_server.run(arrivals, data.train);

  ASSERT_EQ(a.requests.size(), b.requests.size());
  std::size_t flipped = 0;
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    ASSERT_EQ(a.requests[i].outcome, b.requests[i].outcome);
    ASSERT_EQ(a.requests[i].replica, b.requests[i].replica);
    ASSERT_EQ(a.requests[i].batch_id, b.requests[i].batch_id);
    if (a.requests[i].predicted != b.requests[i].predicted) ++flipped;
  }
  EXPECT_GT(flipped, 0u);
  EXPECT_EQ(b.requests.front().predicted, target);
  EXPECT_NE(a.outcome_digest(), b.outcome_digest());
  std::remove(base.c_str());
  std::remove(raised.c_str());
}

TEST(Serve, MismatchedRequestPoolThrowsBeforeAnyWork) {
  const TrainTest mnist = mnist_like(/*seed=*/9, /*train=*/32, /*test=*/8);
  const TrainTest cifar = cifar_like(/*seed=*/9, /*train=*/32, /*test=*/8);
  const std::vector<double> arrivals =
      generate_arrivals(poisson(2000.0, 0.02, 31));
  Server server(lenet_factory(77), lenet_device(), ServerConfig{});

  const obs::Counter& requests =
      obs::metrics().counter(obs::names::kServeRequests);
  const std::uint64_t before = requests.value();
  EXPECT_THROW(server.run(arrivals, cifar.train), Error);
  EXPECT_EQ(requests.value(), before);

  // The failed call left nothing behind: the same server serves a valid run.
  const ServeResult r = server.run(arrivals, mnist.train);
  EXPECT_EQ(r.served + r.shed, arrivals.size());
  EXPECT_GT(r.served, 0u);
  EXPECT_EQ(requests.value(), before + arrivals.size());
}

TEST(Serve, OverloadShedsInsteadOfQueueingUnboundedly) {
  const TrainTest data = mnist_like(/*seed=*/9, /*train=*/32, /*test=*/8);
  // Batch-8 capacity is ≈11.5k rps; offer ~2× that with bursts on top.
  WorkloadConfig wl;
  wl.pattern = ArrivalPattern::kBursty;
  wl.rate_rps = 20000.0;
  wl.burst_rate_rps = 40000.0;
  wl.duration_s = 0.1;
  wl.seed = 13;
  const std::vector<double> arrivals = generate_arrivals(wl);

  ServerConfig cfg;
  cfg.run_model = false;  // pure scheduling study at this request count
  Server server(lenet_factory(77), lenet_device(), cfg);
  const ServeResult r = server.run(arrivals, data.train);

  EXPECT_EQ(r.served + r.shed, arrivals.size());
  EXPECT_GT(r.shed, 0u);
  EXPECT_GT(r.shed_rate, 0.3);  // ≈2× overload must shed a large fraction
  // Admission keeps the queue deadline-feasible: at a 20 ms budget and
  // ~0.7 ms per full batch the backlog can never exceed ~30 batches.
  EXPECT_LT(r.peak_queue_depth, 300u);
  // Every admitted request beats its deadline — the p99 criterion, exact.
  EXPECT_EQ(r.deadline_misses, 0u);
  EXPECT_LE(r.latency_quantile_ms(0.99), cfg.admission.deadline_s * 1e3);
  // Timing-only runs compute no answers.
  for (const RequestRecord& req : r.requests) ASSERT_EQ(req.predicted, -1);
}

TEST(Serve, BatchingAtLeastDoublesGoodputVsBatchOne) {
  const TrainTest data = mnist_like(/*seed=*/9, /*train=*/64, /*test=*/16);
  // 6000 rps sits between batch-1 capacity (~2.1k rps) and batch-8
  // capacity (~11.5k rps): the batch-1 server must shed most of the load
  // while the batched server absorbs all of it.
  const std::vector<double> arrivals =
      generate_arrivals(poisson(6000.0, 0.1, 17));

  ServerConfig cfg1;
  cfg1.batch.max_batch = 1;
  Server s1(lenet_factory(77), lenet_device(), cfg1);
  const ServeResult r1 = s1.run(arrivals, data.train);

  ServerConfig cfg8;
  cfg8.batch.max_batch = 8;
  Server s8(lenet_factory(77), lenet_device(), cfg8);
  const ServeResult r8 = s8.run(arrivals, data.train);

  EXPECT_GT(r1.goodput_rps, 0.0);
  EXPECT_GE(r8.goodput_rps, 2.0 * r1.goodput_rps);
  EXPECT_GT(r8.mean_batch, 4.0);
  // Equal-or-better tail latency while serving ≥2× the traffic.
  EXPECT_LE(r8.latency_quantile_ms(0.99), r1.latency_quantile_ms(0.99));
}

TEST(Serve, AutoscaleGrowsOnStepAndDrainsBacklog) {
  const TrainTest data = mnist_like(/*seed=*/9, /*train=*/32, /*test=*/8);
  // Step from comfortable (6k rps) to over single-replica capacity
  // (24k rps) halfway through.
  WorkloadConfig wl;
  wl.pattern = ArrivalPattern::kStep;
  wl.rate_rps = 6000.0;
  wl.step_rate_rps = 24000.0;
  wl.step_at_s = 0.05;
  wl.duration_s = 0.1;
  wl.seed = 19;
  const std::vector<double> arrivals = generate_arrivals(wl);

  ServerConfig cfg;
  cfg.run_model = false;
  cfg.replicas = 1;
  cfg.autoscale.enabled = true;
  cfg.autoscale.min_replicas = 1;
  cfg.autoscale.max_replicas = 4;
  cfg.autoscale.scale_up_queue_depth = 16;
  cfg.autoscale.activation_delay_s = 2e-3;
  Server server(lenet_factory(77), lenet_device(), cfg);
  const ServeResult r = server.run(arrivals, data.train);

  EXPECT_GE(r.scale_ups, 1u);
  EXPECT_GT(server.active_replicas(), 1u);
  // The scaled-out fleet absorbs the step: most of the offered load is
  // served within deadline.
  EXPECT_GT(r.goodput_rps, 0.7 * r.offered_rps);

  // Determinism extends to scaling decisions.
  Server again(lenet_factory(77), lenet_device(), cfg);
  const ServeResult r2 = again.run(arrivals, data.train);
  EXPECT_EQ(r.outcome_digest(), r2.outcome_digest());
  EXPECT_EQ(r.scale_ups, r2.scale_ups);
}

// ---------------------------------------------------------------------------
// Trace lifecycle rollup.
// ---------------------------------------------------------------------------

TEST(Serve, LifecycleRollupMatchesServerAccounting) {
  TraceGuard guard;
  const TrainTest data = mnist_like(/*seed=*/9, /*train=*/64, /*test=*/16);
  const std::vector<double> arrivals =
      generate_arrivals(poisson(8000.0, 0.05, 23));

  ServerConfig cfg;
  cfg.replicas = 2;
  Server server(lenet_factory(77), lenet_device(), cfg);
  const ServeResult r = server.run(arrivals, data.train);

  const analysis::TraceData live =
      analysis::ingest_snapshot(obs::snapshot());
  const analysis::ServeLifecycle life = analysis::request_lifecycle(live);

  EXPECT_EQ(life.requests, arrivals.size());
  EXPECT_EQ(life.served, r.served);
  EXPECT_EQ(life.shed, r.shed);
  EXPECT_EQ(life.batches, r.batches);
  EXPECT_NEAR(life.mean_batch(), r.mean_batch, 1e-12);

  // The lifecycle's latency stats come from the reply instants' aux
  // payload — the same per-request latencies the ServeResult sorts.
  EXPECT_NEAR(life.latency_p99 * 1e3, r.latency_quantile_ms(0.99), 1e-9);
  EXPECT_NEAR(life.latency_p50 * 1e3, r.latency_quantile_ms(0.50), 1e-9);

  // Queue wait recomputed from the records must match the trace join.
  double queue_wait = 0.0;
  for (const RequestRecord& req : r.requests) {
    if (req.outcome == Outcome::kServed) {
      queue_wait += req.dispatch - req.arrival;
    }
  }
  EXPECT_NEAR(life.queue_wait_seconds, queue_wait, 1e-9);
  EXPECT_GT(life.compute_seconds, 0.0);
  EXPECT_GT(life.reply_seconds, 0.0);

  // Chrome-export round trip: the serving section must survive the
  // write → parse → ingest path with identical rollup numbers (doubles
  // round-trip exactly through the %.17g writer).
  std::ostringstream os;
  obs::write_chrome_trace(os);
  const analysis::TraceData round =
      analysis::ingest_chrome_trace(obs::parse_json(os.str()));
  const analysis::ServeLifecycle life2 = analysis::request_lifecycle(round);
  EXPECT_EQ(life2.served, life.served);
  EXPECT_EQ(life2.shed, life.shed);
  EXPECT_EQ(life2.batches, life.batches);
  EXPECT_DOUBLE_EQ(life2.queue_wait_seconds, life.queue_wait_seconds);
  EXPECT_DOUBLE_EQ(life2.compute_seconds, life.compute_seconds);
  EXPECT_DOUBLE_EQ(life2.latency_p99, life.latency_p99);
}

}  // namespace
}  // namespace ds::serve
