// perfbench — wall-clock benchmark of the deepscale library through its
// public entry points (see README.md beside this file).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scratch <dir>]
//
// Workloads:
//   train_alexnet    run_sync_easgd(kEasgd3): 4 modeled workers on one
//                    thread, alexnet_s on cifar_like, batch 16.
//   fabric_lenet     run_fabric_easgd (Algorithm 4, SPMD): 3 rank threads,
//                    lenet_s on mnist_like, batch 4, one evaluation per run.
//   serve_googlenet  serve::Server::run with real forwards: 2 googlenet_s
//                    replicas restored from a checkpoint, open-loop Poisson
//                    trace below modeled capacity, max_batch 8, admission on.
//
// --trace 0 measures the end-to-end metrics with tracing off: one timed
// set-up, then whole end-to-end calls repeated for --seconds, reporting
// samples per second over all of them. Every call's outputs are checked
// (success_rate).
//
// --trace 1 is the per-layer run: untraced and traced calls alternate (the
// program's own `layer` and `collective` spans are read back from the
// traced ones), then isolated calls into each module's public functions at
// the workload's shapes give the per-layer metrics. The traced call's wall
// time splits into span-measured and isolated-time x calls components,
// tracing overhead and an unattributed remainder that add up to it.
//
// The last line of stdout is one JSON object:
//   {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/fabric.hpp"
#include "core/easgd_rules.hpp"
#include "core/evaluator.hpp"
#include "core/fabric_algorithms.hpp"
#include "core/sync_algorithms.hpp"
#include "data/dataset.hpp"
#include "data/sampler.hpp"
#include "nn/models.hpp"
#include "nn/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"
#include "tensor/gemm.hpp"

namespace {

using ds::WallTimer;

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Median wall seconds of one fn() call: `warm` untimed calls, then at least
/// `min_reps` timed calls and at least `min_seconds` of them in total.
double time_median(const std::function<void()>& fn, int warm, int min_reps,
                   double min_seconds) {
  for (int i = 0; i < warm; ++i) fn();
  std::vector<double> samples;
  WallTimer total;
  while (static_cast<int>(samples.size()) < min_reps ||
         total.seconds() < min_seconds) {
    WallTimer t;
    fn();
    samples.push_back(t.seconds());
  }
  return median(samples);
}

double sample_bytes(const ds::Dataset& d) {
  return static_cast<double>(d.sample_numel()) * sizeof(float);
}

/// Batch of the first `n` samples of `d`.
ds::Tensor first_samples(const ds::Dataset& d, std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i % d.size();
  ds::Tensor images;
  std::vector<std::int32_t> labels;
  ds::gather_batch(d, idx, images, labels);
  return images;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Outcome of the output checks over every end-to-end call of a run.
struct Check {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void record(bool ok, const std::string& why) {
    ++attempted;
    if (ok) return;
    if (failed == 0) std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
    ++failed;
  }
};

void print_result(const Check& check, const std::vector<Metric>& metrics) {
  bool correct = check.failed == 0 && check.attempted > 0;
  std::string body;
  char buf[128];
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) correct = false;
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!body.empty()) body += ", ";
    body += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", check.attempted, check.failed,
              body.c_str());
}

// ---------------------------------------------------------------------------
// What a workload exposes to the per-layer run.
// ---------------------------------------------------------------------------

/// One lowered GEMM (conv forward: m=out_c, n=batch·oh·ow, k=in_c·kh·kw;
/// fully connected: m=batch, n=out, k=in).
struct GemmShape {
  std::size_t m, n, k;
};

/// The model, data and sizes the per-layer measurements run at.
struct LayerSpec {
  ds::NetworkFactory factory;
  const ds::Dataset* train = nullptr;
  const ds::Dataset* test = nullptr;
  std::function<ds::TrainTest()> synth;  // the workload's dataset synthesis
  ds::PaperModelInfo paper;              // device timing for the serving probe
  std::size_t batch = 1;                 // training batch / serving max batch
  std::size_t peers = 1;                 // workers, ranks or replicas
  std::size_t eval_samples = 256;
  bool forward_only = false;             // serving never runs backward
  std::vector<GemmShape> gemm_shapes;    // forward GEMMs at `batch`
};

/// Isolated wall times (seconds) of each module's public functions.
struct LayerTimes {
  double fwd_bwd = 0, build = 0, ckpt_save = 0, ckpt_load = 0;
  double infer_b1 = 0, infer_b8 = 0;
  double gemm_gflops = 0, conv_flops_per_sample = 0, im2col_bytes_per_sample = 0;
  double worker_step = 0, center_step = 0, eval = 0, reduce = 0, rtt = 0;
  double synth = 0, gather = 0, sched_per_req = 0;
};

/// One line of the attribution: `count` calls of `unit_s` seconds each per
/// end-to-end call, and the end-to-end metric the layer moves.
struct Component {
  std::string layer;
  double count;
  double unit_s;
  std::string moves;
};

/// Per-call wall seconds inside the program's own spans on the critical
/// path: the calling thread and fabric rank 0 (other rank threads run in
/// parallel with it). Layer spans split at the call's last backward span:
/// before it the training passes, after it forward-only evaluation or
/// serving.
struct SpanTimes {
  double layer_train = 0.0;
  double layer_forward_only = 0.0;
  double collective = 0.0;  // outermost `collective` spans (tree collectives)
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One end-to-end call, outputs checked into `check`; returns the
  /// samples trained or requests served.
  virtual double call(Check& check) = 0;
  virtual double final_loss() = 0;
  /// Deterministic figures that are printed and checked but not gated.
  virtual std::vector<Metric> info() const = 0;
  virtual const LayerSpec& spec() const = 0;
  /// Messages and bytes exchanged per round (training) or per batch.
  virtual std::pair<double, double> wire_per_round() const = 0;
  virtual std::vector<Component> breakdown(const LayerTimes& t,
                                           const SpanTimes& spans) const = 0;
};

// ---------------------------------------------------------------------------
// Training workloads.
// ---------------------------------------------------------------------------

/// One training workload: which runner, model, data and sizes.
struct TrainingSetup {
  bool fabric;  // run_fabric_easgd on rank threads, else run_sync_easgd
  std::unique_ptr<ds::Network> (*model)(ds::Rng&, ds::PackMode);
  ds::TrainTest (*synth)(std::uint64_t seed, std::size_t train,
                         std::size_t test);
  ds::PaperModelInfo paper;
  std::size_t workers, batch, rounds;
  float learning_rate;
  std::vector<GemmShape> gemm_shapes;  // forward GEMMs at `batch`
};

TrainingSetup train_alexnet_setup() {
  constexpr std::size_t b = 16;
  return {false, ds::make_alexnet_s, ds::cifar_like, ds::paper_alexnet(),
          4, b, 10, 0.05f,
          {{16, b * 1024, 27}, {32, b * 256, 144}, {32, b * 64, 288},
           {b, 128, 512}, {b, 10, 128}}};
}

TrainingSetup fabric_lenet_setup() {
  constexpr std::size_t b = 4;
  // A low rate keeps the final loss early on the curve, where it spreads
  // little across seeds.
  return {true, ds::make_lenet_s, ds::mnist_like, ds::paper_lenet(),
          3, b, 200, 0.01f,
          {{6, b * 576, 25}, {12, b * 64, 150}, {b, 64, 192}, {b, 10, 64}}};
}

class Training final : public Workload {
 public:
  Training(TrainingSetup setup, std::uint64_t seed)
      : setup_(std::move(setup)),
        data_(setup_.synth(seed, 2048, 512)),
        hw_(ds::GpuSystemConfig{}, setup_.paper, sample_bytes(data_.train)) {
    const auto model = setup_.model;
    ctx_.factory = [model, seed] {
      ds::Rng rng(seed);
      return model(rng, ds::PackMode::kPacked);
    };
    ctx_.train = &data_.train;
    ctx_.test = &data_.test;
    ctx_.config.workers = setup_.workers;
    ctx_.config.batch_size = setup_.batch;
    ctx_.config.iterations = setup_.rounds;
    ctx_.config.eval_every = setup_.rounds;  // one evaluation, at the end
    ctx_.config.eval_samples = 256;
    ctx_.config.learning_rate = setup_.learning_rate;
    ctx_.config.seed = seed;
    {
      ds::Evaluator eval(ctx_.factory, data_.test, ctx_.config.eval_samples);
      untrained_loss_ = eval.evaluate(ctx_.factory()->arena()).loss;
    }
    ds::AlgoContext warm = ctx_;  // warm-up: one round, same entry point
    warm.config.iterations = 1;
    warm.config.eval_every = 1;
    run(warm);

    spec_.factory = ctx_.factory;
    spec_.train = &data_.train;
    spec_.test = &data_.test;
    spec_.synth = [synth = setup_.synth, seed] {
      return synth(seed, 2048, 512);
    };
    spec_.paper = setup_.paper;
    spec_.batch = setup_.batch;
    spec_.peers = setup_.workers;
    spec_.eval_samples = ctx_.config.eval_samples;
    spec_.gemm_shapes = setup_.gemm_shapes;
  }

  /// Checks: a finished, undegraded run whose loss is finite and below the
  /// untrained loss; on the fabric, the messages the schedule implies; and
  /// loss, virtual time and wire counts bit-identical across same-seed calls.
  double call(Check& check) override {
    const ds::RunResult r = run(ctx_);
    std::string why;
    if (r.aborted || r.degraded()) {
      why = "run degraded: " + r.fault_summary();
    } else if (r.iterations != setup_.rounds) {
      why = "run stopped early";
    } else if (!std::isfinite(r.final_loss) || r.final_loss >= untrained_loss_) {
      why = "final loss " + std::to_string(r.final_loss) +
            " not below untrained " + std::to_string(untrained_loss_);
    } else if (setup_.fabric && r.messages_sent != expected_messages()) {
      why = "messages_sent " + std::to_string(r.messages_sent) +
            " != schedule " + std::to_string(expected_messages());
    } else if (first_ &&
               (std::memcmp(&r.final_loss, &first_->final_loss,
                            sizeof(double)) != 0 ||
                r.total_seconds != first_->total_seconds ||
                r.messages_sent != first_->messages_sent ||
                r.bytes_sent != first_->bytes_sent)) {
      why = "same-seed call not bit-identical";
    }
    check.record(why.empty(), why);
    if (!first_) first_ = r;
    return static_cast<double>(setup_.workers * setup_.rounds * setup_.batch);
  }

  double final_loss() override { return first_->final_loss; }

  std::vector<Metric> info() const override {
    return {{"vtime_s", first_->total_seconds, "s"}};
  }

  const LayerSpec& spec() const override { return spec_; }

  std::pair<double, double> wire_per_round() const override {
    const double rounds = static_cast<double>(first_->iterations);
    return {static_cast<double>(first_->messages_sent) / rounds,
            static_cast<double>(first_->bytes_sent) / rounds};
  }

  std::vector<Component> breakdown(const LayerTimes& t,
                                   const SpanTimes& spans) const override {
    const double rounds = static_cast<double>(setup_.rounds);
    const std::string moves = (setup_.fabric ? "fabric_lenet" : "train_alexnet") +
                              std::string("/samples_per_s");
    // Forward/backward and the evaluation's forward passes come from the
    // program's own layer spans in the traced calls; the rest is isolated
    // time x calls. On the fabric, rank 0 (the center) is the critical path
    // and the other ranks run beside it; its collectives (hand-offs plus the
    // wait for the slowest peer) also come from spans.
    const double steps =
        setup_.fabric ? rounds : static_cast<double>(setup_.workers) * rounds;
    std::vector<Component> out = {
        {"nn.fwd_bwd (spans)", steps, spans.layer_train / steps, moves},
        {"core.eval forward (spans)", 1.0, spans.layer_forward_only, moves},
        {"data.gather", steps, t.gather, moves},
        {"core.worker_step", steps, t.worker_step, moves},
        {"core.center_step", rounds, t.center_step, moves},
        // Replicas, plus one for the Evaluator; fabric ranks build theirs
        // in parallel.
        {"nn.build", setup_.fabric ? 2.0 : static_cast<double>(setup_.workers + 1),
         t.build, moves},
    };
    if (setup_.fabric) {
      const double collectives = 1.0 + 2.0 * rounds;
      out.push_back({"comm.collective (spans)", collectives,
                     spans.collective / collectives, moves});
    } else {
      out.push_back({"comm.reduce", rounds, t.reduce, moves});
    }
    return out;
  }

 private:
  ds::RunResult run(const ds::AlgoContext& ctx) const {
    return setup_.fabric
               ? ds::run_fabric_easgd(ctx, ds::FabricClusterConfig{})
               : ds::run_sync_easgd(ctx, hw_, ds::SyncEasgdVariant::kEasgd3);
  }

  /// Initial broadcast, then a broadcast and a reduce per round, each P-1
  /// point-to-point messages on the binomial tree.
  std::uint64_t expected_messages() const {
    return (setup_.workers - 1) * (1 + 2 * setup_.rounds);
  }

  TrainingSetup setup_;
  ds::TrainTest data_;
  ds::GpuSystem hw_;
  ds::AlgoContext ctx_;
  double untrained_loss_ = 0.0;
  std::optional<ds::RunResult> first_;
  LayerSpec spec_;
};

// ---------------------------------------------------------------------------
// Serving workload.
// ---------------------------------------------------------------------------

// Modeled capacity of one paper-scale GoogLeNet replica is about 46 requests
// per virtual second at any batch size (GpuSystem::infer_seconds is nearly
// all per-sample flops), so two replicas serve about 93. At 80 requests per
// second the replicas are busy enough that batches of 1 to 8 form, and the
// 0.5 s deadline admits every request.
constexpr std::size_t kServeReplicas = 2;
constexpr std::size_t kServeMaxBatch = 8;
constexpr double kServeRateRps = 80.0;
constexpr double kServeDurationS = 3.0;
constexpr double kServeDeadlineS = 0.5;

std::vector<double> serve_arrivals(std::uint64_t seed) {
  ds::serve::WorkloadConfig wl;
  wl.pattern = ds::serve::ArrivalPattern::kPoisson;
  wl.rate_rps = kServeRateRps;
  wl.duration_s = kServeDurationS;
  wl.seed = seed;
  return ds::serve::generate_arrivals(wl);
}

ds::serve::ServerConfig serve_config(const std::string& checkpoint) {
  ds::serve::ServerConfig cfg;
  cfg.replicas = kServeReplicas;
  cfg.batch.max_batch = kServeMaxBatch;
  cfg.admission.enabled = true;
  cfg.admission.deadline_s = kServeDeadlineS;
  cfg.checkpoint_path = checkpoint;
  cfg.run_model = !checkpoint.empty();
  return cfg;
}

class ServeGooglenet final : public Workload {
 public:
  ServeGooglenet(std::uint64_t seed, const std::string& scratch)
      : data_(ds::cifar_like(seed, 512, 256)),
        device_(ds::GpuSystemConfig{}, ds::paper_googlenet(),
                sample_bytes(data_.test)),
        checkpoint_(scratch + "/serve_googlenet.dscp"),
        arrivals_(serve_arrivals(seed)) {
    {
      ds::Rng rng(seed);
      const std::unique_ptr<ds::Network> model = ds::make_googlenet_s(rng);
      ds::save_checkpoint(*model, checkpoint_);
    }
    // Replica init is overwritten by the checkpoint restore.
    factory_ = [seed] {
      ds::Rng rng(seed + 1);
      return ds::make_googlenet_s(rng);
    };
    server_ = std::make_unique<ds::serve::Server>(factory_, device_,
                                                  serve_config(checkpoint_));
    // Warm-up: a simultaneous burst fills a max-size batch on every replica,
    // so each one has grown its buffers to the largest batch before timing.
    server_->run(std::vector<double>(kServeReplicas * kServeMaxBatch, 0.0),
                 data_.test);

    spec_.factory = factory_;
    spec_.train = &data_.train;
    spec_.test = &data_.test;
    spec_.synth = [seed] { return ds::cifar_like(seed, 512, 256); };
    spec_.paper = ds::paper_googlenet();
    spec_.batch = kServeMaxBatch;
    spec_.peers = kServeReplicas;
    spec_.eval_samples = 256;
    spec_.forward_only = true;
    const std::size_t b = kServeMaxBatch;
    const std::size_t p16 = b * 256, p8 = b * 64;  // 16×16 and 8×8 planes
    spec_.gemm_shapes = {
        {16, b * 1024, 27},                                  // stem conv
        {8, p16, 16}, {8, p16, 16}, {4, p16, 16},            // inception 1
        {16, p16, 72}, {8, p16, 100}, {8, p16, 16},
        {16, p8, 40}, {16, p8, 40}, {8, p8, 40},             // inception 2
        {32, p8, 144}, {16, p8, 200}, {16, p8, 40},
        {b, 10, 80},                                         // classifier
    };
  }

  ~ServeGooglenet() override { std::remove(checkpoint_.c_str()); }
  ServeGooglenet(const ServeGooglenet&) = delete;
  ServeGooglenet& operator=(const ServeGooglenet&) = delete;

  double call(Check& check) override {
    ds::serve::ServeResult r = server_->run(arrivals_, data_.test);
    std::string why;
    if (r.served + r.shed != arrivals_.size()) {
      why = "served + shed != arrivals";
    } else if (r.deadline_misses != 0) {
      why = "admitted request missed its deadline";
    } else if (r.served == 0) {
      why = "nothing served";
    } else if (first_ && r.outcome_digest() != first_->outcome_digest()) {
      why = "outcome_digest changed across same-trace runs";
    }
    check.record(why.empty(), why);
    const double served = static_cast<double>(r.served);
    if (!first_) first_ = std::move(r);
    return served;
  }

  /// Test loss of a replica restored from the served checkpoint.
  double final_loss() override {
    const std::unique_ptr<ds::Network> replica = factory_();
    ds::load_checkpoint(*replica, checkpoint_);
    ds::Evaluator eval(factory_, data_.test, spec_.eval_samples);
    return eval.evaluate(replica->arena()).loss;
  }

  std::vector<Metric> info() const override {
    return {{"vtime_s", first_->duration_s, "s"},
            {"latency_ms_p50", first_->latency_quantile_ms(0.50), "ms"},
            {"latency_ms_p99", first_->latency_quantile_ms(0.99), "ms"},
            {"goodput_rps", first_->goodput_rps, "req/s"},
            {"shed_rate", first_->shed_rate, "fraction"},
            {"mean_batch", first_->mean_batch, "requests"}};
  }

  const LayerSpec& spec() const override { return spec_; }

  std::pair<double, double> wire_per_round() const override {
    // Per dispatched batch: each request's input copied in, its reply out.
    const double b = first_->mean_batch;
    return {2.0 * b, b * (sample_bytes(data_.test) +
                          device_.config().reply_bytes_per_request)};
  }

  std::vector<Component> breakdown(const LayerTimes& t,
                                   const SpanTimes& spans) const override {
    const char* moves = "serve_googlenet/samples_per_s";
    const double batches = static_cast<double>(first_->batches);
    return {
        {"nn.infer (spans)", batches, spans.layer_forward_only / batches, moves},
        // Coalescing a batch is a gather of its samples.
        {"data.gather", batches,
         t.gather * first_->mean_batch / static_cast<double>(kServeMaxBatch),
         moves},
        {"serve.sched", static_cast<double>(arrivals_.size()), t.sched_per_req,
         moves},
    };
  }

 private:
  ds::TrainTest data_;
  ds::GpuSystem device_;
  std::string checkpoint_;
  std::vector<double> arrivals_;
  ds::NetworkFactory factory_;
  std::unique_ptr<ds::serve::Server> server_;
  std::optional<ds::serve::ServeResult> first_;
  LayerSpec spec_;
};

// ---------------------------------------------------------------------------
// Isolated per-layer measurements.
// ---------------------------------------------------------------------------

double measure_gemm_gflops(const std::vector<GemmShape>& shapes) {
  std::vector<std::vector<float>> a, b, c;
  double flops = 0.0;
  for (const GemmShape& s : shapes) {
    a.emplace_back(s.m * s.k, 0.5f);
    b.emplace_back(s.k * s.n, 0.25f);
    c.emplace_back(s.m * s.n, 0.0f);
    flops += ds::gemm_flops(s.m, s.n, s.k);
  }
  const double seconds = time_median(
      [&] {
        for (std::size_t i = 0; i < shapes.size(); ++i) {
          const GemmShape& s = shapes[i];
          ds::gemm(ds::Transpose::kNo, ds::Transpose::kNo, s.m, s.n, s.k, 1.0f,
                   a[i].data(), b[i].data(), 0.0f, c[i].data());
        }
      },
      2, 10, 0.2);
  return flops / seconds / 1e9;
}

/// Ping-pong of an n-float message between two fabric ranks on two threads.
double measure_fabric_rtt(std::size_t n) {
  constexpr int kTrips = 100;
  std::vector<double> per_trip;
  for (int rep = 0; rep < 5; ++rep) {
    ds::Fabric fabric(2, ds::cray_aries());
    const std::vector<float> payload(n, 1.0f);
    WallTimer t;
    ds::parallel_for_threads(2, [&](std::size_t rank) {
      for (int i = 0; i < kTrips; ++i) {
        if (rank == 0) {
          fabric.send(0, 1, 7, payload);
          fabric.recv(0, 1, 7);
        } else {
          std::vector<float> msg = fabric.recv(1, 0, 7);
          fabric.send(1, 0, 7, std::move(msg));
        }
      }
    });
    per_trip.push_back(t.seconds() / kTrips);
  }
  return median(per_trip);
}

LayerTimes measure_layers(const LayerSpec& spec, const std::string& scratch,
                          std::uint64_t seed) {
  LayerTimes t;
  const std::unique_ptr<ds::Network> net = spec.factory();
  const std::size_t n = net->param_count();

  // nn: training step, inference at batch 1 and 8, build, checkpoint.
  ds::BatchSampler sampler(*spec.train, spec.batch, seed);
  ds::Tensor batch;
  std::vector<std::int32_t> labels;
  sampler.next(batch, labels);
  t.fwd_bwd = time_median(
      [&] {
        net->zero_grads();
        net->forward_backward(batch, labels);
      },
      2, 10, 0.3);
  const ds::Tensor one = first_samples(*spec.test, 1);
  const ds::Tensor eight = first_samples(*spec.test, 8);
  t.infer_b1 = time_median([&] { net->infer(one); }, 2, 5, 0.05);
  t.infer_b8 = time_median([&] { net->infer(eight); }, 2, 5, 0.05);
  t.build = time_median([&] { spec.factory(); }, 1, 5, 0.05);
  const std::string ckpt = scratch + "/perfbench_layer.dscp";
  t.ckpt_save = time_median([&] { ds::save_checkpoint(*net, ckpt); }, 1, 5, 0.05);
  t.ckpt_load = time_median([&] { ds::load_checkpoint(*net, ckpt); }, 1, 5, 0.05);
  std::remove(ckpt.c_str());

  // tensor: GEMM rate at the lowered shapes; exact per-sample conv counts
  // from the program's own always-on accumulators.
  t.gemm_gflops = measure_gemm_gflops(spec.gemm_shapes);
  {
    ds::obs::AccumDouble& flops =
        ds::obs::metrics().accum(ds::obs::names::kConvFlops);
    ds::obs::AccumDouble& bytes =
        ds::obs::metrics().accum(ds::obs::names::kIm2colBytes);
    const double f0 = flops.value(), b0 = bytes.value();
    if (spec.forward_only) {
      net->infer(first_samples(*spec.test, spec.batch));
    } else {
      net->zero_grads();
      net->forward_backward(batch, labels);
    }
    const double per = 1.0 / static_cast<double>(spec.batch);
    t.conv_flops_per_sample = (flops.value() - f0) * per;
    t.im2col_bytes_per_sample = (bytes.value() - b0) * per;
  }

  // core: the EASGD update rules over the arena, and one evaluation.
  std::vector<float> w(n, 0.5f), g(n, 0.01f), center(n, 0.4f), sum(n, 2.0f);
  t.worker_step = time_median(
      [&] { ds::easgd_worker_step(w, g, center, 0.05f, 0.0625f); }, 2, 20, 0.05);
  t.center_step = time_median(
      [&] {
        ds::easgd_center_step_sum(center, sum, spec.peers, 0.05f, 0.0625f);
      },
      2, 20, 0.05);
  {
    ds::Evaluator eval(spec.factory, *spec.test, spec.eval_samples);
    t.eval = time_median([&] { eval.evaluate(net->arena()); }, 1, 3, 0.1);
  }

  // comm: in-process reduce over P arena buffers; fabric ping-pong.
  {
    std::vector<std::vector<float>> bufs(spec.peers, std::vector<float>(n, 1.0f));
    std::vector<std::span<const float>> views(bufs.begin(), bufs.end());
    std::vector<float> out(n);
    t.reduce = time_median([&] { ds::reduce_sum(views, out); }, 2, 20, 0.05);
  }
  t.rtt = measure_fabric_rtt(n);

  // data: synthesis of the workload's dataset, one batch gather.
  t.synth = time_median([&] { spec.synth(); }, 0, 3, 0.0);
  {
    std::vector<std::size_t> idx(spec.batch);
    ds::Rng rng(seed);
    for (auto& i : idx) i = rng.below(spec.train->size());
    t.gather = time_median(
        [&] { ds::gather_batch(*spec.train, idx, batch, labels); }, 2, 50, 0.02);
  }

  // serve: scheduling alone (no model math) on the serving trace.
  {
    const ds::GpuSystem device(ds::GpuSystemConfig{}, spec.paper,
                               sample_bytes(*spec.test));
    ds::serve::Server server(spec.factory, device, serve_config(""));
    const std::vector<double> arrivals = serve_arrivals(seed);
    t.sched_per_req =
        time_median([&] { server.run(arrivals, *spec.test); }, 1, 5, 0.05) /
        static_cast<double>(arrivals.size());
  }
  return t;
}

// ---------------------------------------------------------------------------
// The two run modes.
// ---------------------------------------------------------------------------

int run_end_to_end(Workload& w, const std::string& name, double seconds,
                   double setup_s) {
  // Samples over the whole timed span, not a median of per-call rates: the
  // host's speed switches between fast and slow spells, and a median snaps
  // to whichever spell covered most of the run.
  Check check;
  double samples = 0.0, busy_s = 0.0;
  std::size_t calls = 0;
  WallTimer total;
  while (calls < 3 || total.seconds() < seconds) {
    WallTimer t;
    samples += w.call(check);
    busy_s += t.seconds();
    ++calls;
  }
  const double success =
      static_cast<double>(check.attempted - check.failed) /
      static_cast<double>(check.attempted);
  const std::vector<Metric> metrics = {
      {"samples_per_s", samples / busy_s, "samples/s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"success_rate", success, "fraction"},
      {"final_loss", w.final_loss(), "nats"},
  };
  std::printf("%s: %zu calls in %.2f s\n", name.c_str(), calls, busy_s);
  for (const Metric& m : metrics) {
    std::printf("  %-16s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : w.info()) {
    std::printf("  %-16s %14.6g %s  (deterministic, not gated)\n",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  print_result(check, metrics);
  return 0;
}

/// Wall seconds inside the program's own spans, summed over traced calls:
/// `layer` spans by name on every thread, and SpanTimes on the critical path.
struct SpanTotals {
  std::map<std::string, double> layer_by_name;
  SpanTimes critical;

  /// Adds one traced call's events.
  void add(const std::vector<ds::obs::ThreadEvents>& threads) {
    for (const ds::obs::ThreadEvents& te : threads) {
      const bool on_critical_path = std::any_of(
          te.events.begin(), te.events.end(), [](const ds::obs::Event& ev) {
            return ev.rank == 0 || ev.rank == ds::obs::kNoRank;
          });
      struct Closed {
        std::int64_t begin_ns;
        double seconds;
      };
      std::vector<Closed> layers;
      std::int64_t last_bwd_ns = -1;
      std::vector<const ds::obs::Event*> open;
      int open_collectives = 0;
      for (const ds::obs::Event& ev : te.events) {
        if (ev.type == ds::obs::EventType::kSpanBegin) {
          open.push_back(&ev);
          if (std::strcmp(ev.category, "collective") == 0) ++open_collectives;
          continue;
        }
        if (ev.type != ds::obs::EventType::kSpanEnd || open.empty()) continue;
        const ds::obs::Event* b = open.back();
        open.pop_back();
        const double s = static_cast<double>(ev.wall_ns - b->wall_ns) * 1e-9;
        if (std::strcmp(b->category, "layer") == 0) {
          layer_by_name[b->name] += s;
          layers.push_back({b->wall_ns, s});
          if (std::strncmp(b->name, "bwd ", 4) == 0) last_bwd_ns = b->wall_ns;
        } else if (std::strcmp(b->category, "collective") == 0 &&
                   --open_collectives == 0 && on_critical_path) {
          critical.collective += s;
        }
      }
      if (!on_critical_path) continue;
      for (const Closed& c : layers) {
        (c.begin_ns <= last_bwd_ns ? critical.layer_train
                                   : critical.layer_forward_only) += c.seconds;
      }
    }
  }
};

int run_traced(Workload& w, const std::string& name, double seconds,
               const std::string& scratch, std::uint64_t seed) {
  // Untraced and traced calls alternate, so host-speed drift during the
  // run lands on both sides of the overhead comparison alike.
  Check check;
  std::vector<double> untraced_walls, traced_walls;
  SpanTotals spans;
  WallTimer total;
  while (traced_walls.size() < 3 || total.seconds() < seconds * 2.0 / 3.0) {
    WallTimer u;
    w.call(check);
    untraced_walls.push_back(u.seconds());

    ds::obs::reset();
    ds::obs::set_tracing_enabled(true);
    WallTimer t;
    w.call(check);
    traced_walls.push_back(t.seconds());
    ds::obs::set_tracing_enabled(false);
    spans.add(ds::obs::snapshot());
  }
  ds::obs::reset();
  // Means, not medians: the span totals below are per-call means too, so
  // the shares add up exactly.
  const double calls = static_cast<double>(traced_walls.size());
  const double untraced =
      std::accumulate(untraced_walls.begin(), untraced_walls.end(), 0.0) /
      static_cast<double>(untraced_walls.size());
  const double traced =
      std::accumulate(traced_walls.begin(), traced_walls.end(), 0.0) / calls;
  const SpanTimes per_call{spans.critical.layer_train / calls,
                           spans.critical.layer_forward_only / calls,
                           spans.critical.collective / calls};

  const LayerTimes t = measure_layers(w.spec(), scratch, seed);
  const auto [messages, bytes] = w.wire_per_round();

  // Attribution of the traced call: modeled layers + tracing overhead +
  // unattributed remainder == traced wall time.
  std::printf("%s: traced call %.4f s, untraced %.4f s\n", name.c_str(),
              traced, untraced);
  std::printf("  %-32s %10s %12s %8s  %s\n", "layer", "calls", "unit_ms",
              "share", "moves");
  double modeled = 0.0;
  for (const Component& c : w.breakdown(t, per_call)) {
    const double s = c.count * c.unit_s;
    modeled += s;
    std::printf("  %-32s %10.1f %12.5f %8.4f  %s\n", c.layer.c_str(), c.count,
                c.unit_s * 1e3, s / traced, c.moves.c_str());
  }
  const double overhead_share = (traced - untraced) / traced;
  const double unattributed_share = (untraced - modeled) / traced;
  std::printf("  %-32s %10s %12s %8.4f  every metric of %s\n",
              "obs.trace_overhead", "", "", overhead_share, name.c_str());
  std::printf("  %-32s %10s %12s %8.4f\n", "unattributed", "", "",
              unattributed_share);

  // Cross-check against the program's own spans: fwd/bwd layer time per call.
  double span_total = 0.0;
  std::vector<std::pair<double, std::string>> top;
  for (const auto& [span, s] : spans.layer_by_name) {
    span_total += s;
    top.emplace_back(s, span);
  }
  std::sort(top.rbegin(), top.rend());
  std::printf("  program `layer` spans on all threads: %.4f s per traced call "
              "(%.1f%% of it)\n",
              span_total / calls, 100.0 * span_total / calls / traced);
  for (std::size_t i = 0; i < std::min<std::size_t>(6, top.size()); ++i) {
    std::printf("    %-20s %.5f s per call\n", top[i].second.c_str(),
                top[i].first / calls);
  }

  const std::vector<Metric> metrics = {
      {"nn.fwd_bwd_ms", t.fwd_bwd * 1e3, "ms"},
      {"nn.infer_ms_b1", t.infer_b1 * 1e3, "ms"},
      {"nn.infer_ms_b8", t.infer_b8 * 1e3, "ms"},
      {"nn.build_ms", t.build * 1e3, "ms"},
      {"nn.ckpt_save_ms", t.ckpt_save * 1e3, "ms"},
      {"nn.ckpt_load_ms", t.ckpt_load * 1e3, "ms"},
      {"tensor.gemm_gflops", t.gemm_gflops, "GFLOP/s"},
      {"tensor.conv_flops_per_sample", t.conv_flops_per_sample, "flop"},
      {"tensor.im2col_bytes_per_sample", t.im2col_bytes_per_sample, "B"},
      {"core.update_us", (t.worker_step + t.center_step) * 1e6, "us"},
      {"core.eval_ms", t.eval * 1e3, "ms"},
      {"comm.reduce_us", t.reduce * 1e6, "us"},
      {"comm.fabric_rtt_us", t.rtt * 1e6, "us"},
      {"comm.messages_per_round", messages, "count"},
      {"comm.bytes_per_round", bytes, "B"},
      {"data.synth_s", t.synth, "s"},
      {"data.gather_us", t.gather * 1e6, "us"},
      {"serve.sched_us_per_req", t.sched_per_req * 1e6, "us"},
      {"obs.trace_overhead_share", overhead_share, "fraction"},
      {"unattributed_share", unattributed_share, "fraction"},
  };
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_result(check, metrics);
  return 0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string scratch = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") { a.seed = std::stoull(value); have_seed = true; }
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = std::stoi(value);
    else if (flag == "--scratch") a.scratch = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.workload.empty() || !have_seed || !(a.seconds > 0.0) ||
      (a.trace != 0 && a.trace != 1)) {
    throw std::invalid_argument(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--scratch <dir>]");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  // Asserts live in the kernels make every number meaningless as a
  // baseline; refuse to report rather than let one slip in.
  std::fprintf(stderr,
               "perfbench: built without NDEBUG (not a Release build); "
               "refusing to report timings\n");
  return 3;
#endif
  try {
    const Args args = parse_args(argc, argv);
    // One set-up per process, timed; the runner repeats processes and
    // reports the median.
    WallTimer setup_timer;
    std::unique_ptr<Workload> w;
    if (args.workload == "train_alexnet") {
      w = std::make_unique<Training>(train_alexnet_setup(), args.seed);
    } else if (args.workload == "fabric_lenet") {
      w = std::make_unique<Training>(fabric_lenet_setup(), args.seed);
    } else if (args.workload == "serve_googlenet") {
      w = std::make_unique<ServeGooglenet>(args.seed, args.scratch);
    } else {
      throw std::invalid_argument("unknown workload " + args.workload);
    }
    const double setup_s = setup_timer.seconds();
    return args.trace == 0
               ? run_end_to_end(*w, args.workload, args.seconds, setup_s)
               : run_traced(*w, args.workload, args.seconds, args.scratch,
                            args.seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
