#include "core/sync_algorithms.hpp"

#include <algorithm>
#include <functional>
#include <sstream>

#include "comm/bucket.hpp"
#include "core/easgd_rules.hpp"
#include "core/evaluator.hpp"
#include "core/replica_set.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "tensor/ops.hpp"

namespace ds {
namespace {

/// Wire accounting for the modeled (GpuSystem) methods: a collective over P
/// participants delivers P-1 point-to-point messages per direction whatever
/// the schedule (a binomial tree only shortens the critical path), and a
/// per-layer layout splits each hop into one message per learnable tensor.
void apply_modeled_wire(RunResult& res, double messages_per_iter,
                        double bytes_per_iter) {
  const double iters = static_cast<double>(res.iterations);
  res.messages_sent = static_cast<std::uint64_t>(messages_per_iter * iters);
  res.bytes_sent = static_cast<std::uint64_t>(bytes_per_iter * iters);
  obs::metrics()
      .counter(obs::names::kCommMessagesModeled)
      .add(res.messages_sent);
  obs::metrics().counter(obs::names::kCommBytesModeled).add(res.bytes_sent);
}

/// Worker replicas, batch samplers seeded per worker.
ReplicaSet make_workers(const AlgoContext& ctx) {
  const std::uint64_t seed = ctx.config.seed;
  return ReplicaSet(ctx, ctx.config.workers,
                    [seed](std::size_t i) { return seed * 7919 + i + 1; });
}

void record_point(RunResult& res, Evaluator& eval,
                  std::span<const float> center, std::size_t iteration,
                  double vtime) {
  TracePoint p = eval.evaluate_packed(center);
  p.iteration = iteration;
  p.vtime = vtime;
  res.trace.push_back(p);
}

void finish(RunResult& res, double vtime, std::size_t iterations) {
  res.total_seconds = vtime;
  res.iterations = iterations;
  if (!res.trace.empty()) {
    res.final_accuracy = res.trace.back().accuracy;
    res.final_loss = res.trace.back().loss;
  }
}

/// The sync family's reading of a FaultPlan: one straggler gates every
/// round, and the earliest scheduled crash ends the run.
struct FaultView {
  bool on = false;
  double slow = 1.0;  // max straggler factor over the workers
  double crash_horizon = kNeverCrashes;
  std::size_t crash_worker = 0;
};

FaultView view_faults(const FaultPlan& faults, std::size_t workers) {
  FaultView v;
  v.on = faults.active();
  if (!v.on) return v;
  for (std::size_t j = 0; j < workers; ++j) {
    v.slow = std::max(v.slow, faults.straggler_for(j));
    if (faults.crash_time(j) < v.crash_horizon) {
      v.crash_horizon = faults.crash_time(j);
      v.crash_worker = j;
    }
  }
  return v;
}

/// True when round `t` (which would end at `end_of_round`) must abort:
/// a worker dies mid-round, so the round's math never commits. Fills the
/// abort fields; the caller records partial progress and returns.
bool round_crashes(RunResult& res, const FaultView& v, double end_of_round,
                   std::size_t t) {
  if (!v.on || end_of_round < v.crash_horizon) return false;
  res.aborted = true;
  res.workers_survived = res.workers - 1;
  std::ostringstream os;
  os << "worker " << v.crash_worker << " crashed in round " << t
     << "; round aborted";
  res.abort_reason = os.str();
  return true;
}

/// Modeled bucketed-exchange timeline inside one iteration (times relative
/// to the iteration's start; DESIGN.md §10). Gradients retire across the
/// backward 2/3 of the forward+backward span, apportioned by per-layer
/// flops; each bucket's exchange starts at its retire time and the link
/// serializes the in-flight buckets. The math of the iteration is UNTOUCHED
/// — bucketing only reshapes when communication is charged, which is what
/// keeps bucketed results bitwise-identical to the full-pass baseline.
struct BucketSchedule {
  BucketPlan plan;
  std::vector<double> wire;  // per-bucket exchange seconds
  BucketTimeline timeline;
  double wire_total = 0.0;
  double exposed = 0.0;  // comm past the end of (data + f/b)
};

BucketSchedule plan_bucketed_comm(
    const Network& net, std::size_t bucket_bytes, double data_s, double fb_s,
    double slow, double model_weight_bytes,
    const std::function<double(double)>& bucket_exchange_seconds) {
  BucketSchedule s;
  s.plan = BucketPlan(net.arena().layer_sizes(), bucket_bytes);
  const std::vector<double>& lf = net.layer_flops();
  const double total_flops = net.flops_per_sample();
  // Forward ≈ 1/3, backward ≈ 2/3 of the pass (one grad-input + one
  // grad-weight GEMM per forward GEMM).
  const double bwd_begin = data_s * slow + fb_s * slow / 3.0;
  const double bwd_span = fb_s * slow * 2.0 / 3.0;
  std::vector<double> layer_seconds(lf.size(), 0.0);
  if (total_flops > 0.0) {
    for (std::size_t i = 0; i < lf.size(); ++i) {
      layer_seconds[i] = bwd_span * lf[i] / total_flops;
    }
  }
  const std::vector<double> ready =
      bucket_ready_times(s.plan, layer_seconds, bwd_begin);

  // Timing runs at paper scale: each bucket carries its share of the
  // paper-model weight bytes, and pays the full α of its own message —
  // more buckets, more latency terms, exactly the §5.2 packing tradeoff.
  s.wire.resize(s.plan.bucket_count(), 0.0);
  for (std::size_t b = 0; b < s.plan.bucket_count(); ++b) {
    const double bytes = model_weight_bytes *
                         static_cast<double>(s.plan.bucket(b).params) /
                         static_cast<double>(s.plan.total_params());
    s.wire[b] = bucket_exchange_seconds(bytes);
    s.wire_total += s.wire[b];
  }
  s.timeline = bucket_timeline(ready, s.wire);
  s.exposed = s.timeline.exposed_after((data_s + fb_s) * slow);
  return s;
}

}  // namespace

RunResult run_original_easgd(const AlgoContext& ctx, const GpuSystem& hw,
                             OriginalVariant variant,
                             const FaultPlan& faults) {
  const TrainConfig& cfg = ctx.config;
  // Modeled runs live on a single virtual timeline: rank 0.
  const obs::RankScope obs_rank(0);
  DS_TRACE_SPAN("algo", "run_original_easgd");
  ReplicaSet w = make_workers(ctx);
  Evaluator eval(ctx.factory, *ctx.test, cfg.eval_samples);

  // Center weights live on the host (Algorithm 1 keeps W̄ CPU-side; the
  // multi-GPU variant pins it to GPU0 but every exchange still crosses the
  // host link in the baseline implementation).
  std::vector<float> center(w.net(0).arena().full_params().begin(),
                            w.net(0).arena().full_params().end());
  std::vector<float> worker_snapshot(center.size());

  RunResult res;
  res.method = variant == OriginalVariant::kOverlapped ? "Original EASGD"
                                                       : "Original EASGD*";

  // The baseline predates the single-layer packing of §5.2: every weight
  // transfer is one message per learnable tensor.
  const double hop = hw.host_param_hop_seconds(MessageLayout::kPerLayer);
  const double data_s = hw.data_copy_seconds(cfg.batch_size);
  const double fb_s = hw.fwd_bwd_seconds(cfg.batch_size);
  const double gup_s = hw.gpu_update_seconds();
  const double cup_s = hw.cpu_update_seconds();

  const FaultView fv = view_faults(faults, cfg.workers);
  res.workers = cfg.workers;
  res.workers_survived = cfg.workers;

  double vtime = 0.0;
  for (std::size_t t = 1; t <= cfg.iterations; ++t) {
    const std::size_t j = (t - 1) % cfg.workers;  // round-robin (§3.3)

    // --- virtual time (computed first so a crash aborts the round before
    // its math commits) -------------------------------------------------
    // Round-robin only gates on the ACTIVE worker, so its own straggler
    // factor — not the cluster max — stretches this round.
    const double slow = fv.on ? faults.straggler_for(j) : 1.0;
    const double param_s = 2.0 * hop;  // W̄ down + W_j up
    const double fb_charged =
        (variant == OriginalVariant::kOverlapped
             ? std::max(0.0, fb_s - param_s)  // pipelined behind transfers
             : fb_s) *
        slow;
    const double iter_seconds =
        data_s * slow + param_s + fb_charged + gup_s * slow + cup_s;
    if (round_crashes(res, fv, vtime + iter_seconds, t)) {
      if (res.trace.empty() || res.trace.back().iteration != t - 1) {
        record_point(res, eval, center, t - 1, vtime);
      }
      finish(res, vtime, t - 1);
      apply_modeled_wire(res,
                         2.0 * static_cast<double>(hw.model().comm_layers),
                         2.0 * hw.model().weight_bytes);
      res.final_params.assign(center.begin(), center.end());
      return res;
    }

    w.compute_gradient(j);
    Network& net = w.net(j);
    const float lr = cfg.lr_at(t);
    // "CPU gets W_j from j-th GPU" (line 12): snapshot pre-update weights.
    copy(net.arena().full_params(), worker_snapshot);
    // Line 13, Eq. (1) on the device against W̄_t.
    easgd_worker_step(net.arena().full_params(), net.arena().full_grads(),
                      center, lr, cfg.rho);
    // Line 14, Eq. (2) on the host against the transmitted W_j^t.
    easgd_center_step(center, worker_snapshot, lr, cfg.rho);

    double tc = vtime;
    tc += data_s * slow;
    res.ledger.charge_traced(Phase::kCpuGpuDataComm, data_s * slow, tc);
    tc += param_s;
    res.ledger.charge_traced(Phase::kCpuGpuParamComm, param_s, tc);
    tc += fb_charged;
    res.ledger.charge_traced(Phase::kForwardBackward, fb_charged, tc);
    tc += gup_s * slow;
    res.ledger.charge_traced(Phase::kGpuUpdate, gup_s * slow, tc);
    tc += cup_s;
    res.ledger.charge_traced(Phase::kCpuUpdate, cup_s, tc);
    vtime += iter_seconds;

    if (t % cfg.eval_every == 0 || t == cfg.iterations) {
      record_point(res, eval, center, t, vtime);
    }
  }
  finish(res, vtime, cfg.iterations);
  // Per-layer messages in both directions of the host hop, every iteration.
  apply_modeled_wire(res, 2.0 * static_cast<double>(hw.model().comm_layers),
                     2.0 * hw.model().weight_bytes);
  res.final_params.assign(center.begin(), center.end());
  return res;
}

RunResult run_sync_easgd(const AlgoContext& ctx, const GpuSystem& hw,
                         SyncEasgdVariant variant, const FaultPlan& faults) {
  const TrainConfig& cfg = ctx.config;
  const obs::RankScope obs_rank(0);
  DS_TRACE_SPAN("algo", "run_sync_easgd");
  ReplicaSet w = make_workers(ctx);
  Evaluator eval(ctx.factory, *ctx.test, cfg.eval_samples);

  std::vector<float> center(w.net(0).arena().full_params().begin(),
                            w.net(0).arena().full_params().end());
  std::vector<float> sum_w(center.size());

  RunResult res;
  switch (variant) {
    case SyncEasgdVariant::kEasgd1: res.method = "Sync EASGD1"; break;
    case SyncEasgdVariant::kEasgd2: res.method = "Sync EASGD2"; break;
    case SyncEasgdVariant::kEasgd3: res.method = "Sync EASGD3"; break;
  }
  const bool bucketed = cfg.bucketing.enabled();
  if (bucketed) res.method += " (bucketed)";

  if (variant != SyncEasgdVariant::kEasgd1) {
    DS_CHECK(hw.weights_fit_on_device(),
             "Sync EASGD2/3 keep the full weight copy on the device "
             "(§6.1.2) — model too large for device memory");
  }

  // Costs shared by every iteration.
  const double data_s = hw.data_copy_seconds(cfg.batch_size);
  const double fb_s = hw.fwd_bwd_seconds(cfg.batch_size);
  const double gup_s = hw.gpu_update_seconds();
  const bool device_master = variant != SyncEasgdVariant::kEasgd1;
  // Broadcast of W̄ plus reduction of ΣW, both tree-scheduled on packed
  // single messages (§5.2 + §6.1.1).
  const double comm_full =
      device_master
          ? 2.0 * hw.p2p_collective_seconds(cfg.reduce_algo, cfg.layout)
          : 2.0 * hw.host_collective_seconds(cfg.reduce_algo, cfg.layout);
  // EASGD3 overlaps steps 7–10 (data + f/b) with 11–12 (device collectives);
  // the residual models switch contention that cannot be hidden (§6.1.3).
  const double comm_exposed =
      variant == SyncEasgdVariant::kEasgd3
          ? comm_full * hw.config().overlap_residual
          : comm_full;
  const double master_up_s =
      device_master ? hw.gpu_update_seconds() : hw.cpu_update_seconds();
  const Phase comm_phase =
      device_master ? Phase::kGpuGpuParamComm : Phase::kCpuGpuParamComm;
  const Phase master_up_phase =
      device_master ? Phase::kGpuUpdate : Phase::kCpuUpdate;

  std::vector<std::span<const float>> param_views;
  param_views.reserve(cfg.workers);

  const FaultView fv = view_faults(faults, cfg.workers);
  res.workers = cfg.workers;
  res.workers_survived = cfg.workers;

  // Broadcast + reduce move ranks-1 messages each per iteration over the
  // collective group (host joins the group when it is the master).
  const std::size_t coll_ranks = device_master ? hw.gpus() : hw.gpus() + 1;

  // Bucketed pipeline (DESIGN.md §10): the EASGD exchange of a bucket —
  // reduce of the workers' pre-update W slice + broadcast of the W̄ slice —
  // launches as soon as backward retires the slice (the worker's Eq. (1)
  // for the slice needs its gradient, so retire time is the earliest the
  // slice is both shippable and finalizable). Only comm left exposed past
  // the backward pass extends the iteration; EASGD3's overlap_residual is
  // superseded — bucketing IS the overlap mechanism here.
  BucketSchedule bsched;
  if (bucketed) {
    const LinkModel& link =
        device_master ? hw.config().p2p_link : hw.config().host_link;
    bsched = plan_bucketed_comm(
        w.net(0), cfg.bucketing.bucket_bytes, data_s, fb_s, fv.slow,
        hw.model().weight_bytes, [&](double bytes) {
          return 2.0 * collective_seconds(cfg.reduce_algo, coll_ranks, bytes,
                                          link);
        });
  }

  // Every round gates on the slowest replica, so one straggler stretches
  // the worker-parallel phases of the whole cluster.
  const double iter_seconds =
      data_s * fv.slow + fb_s * fv.slow +
      (bucketed ? bsched.exposed : comm_exposed) + gup_s * fv.slow +
      master_up_s;

  const double hop_msgs =
      static_cast<double>(coll_ranks - 1) *
      (bucketed ? static_cast<double>(bsched.plan.bucket_count())
                : (cfg.layout == MessageLayout::kPacked
                       ? 1.0
                       : static_cast<double>(hw.model().comm_layers)));
  const double wire_msgs_per_iter = 2.0 * hop_msgs;
  const double wire_bytes_per_iter =
      2.0 * static_cast<double>(coll_ranks - 1) * hw.model().weight_bytes;

  double vtime = 0.0;
  for (std::size_t t = 1; t <= cfg.iterations; ++t) {
    if (round_crashes(res, fv, vtime + iter_seconds, t)) {
      if (res.trace.empty() || res.trace.back().iteration != t - 1) {
        record_point(res, eval, center, t - 1, vtime);
      }
      finish(res, vtime, t - 1);
      apply_modeled_wire(res, wire_msgs_per_iter, wire_bytes_per_iter);
      res.final_params.assign(center.begin(), center.end());
      return res;
    }
    // Step (1): every worker computes its sub-gradient in parallel.
    w.compute_gradients();

    // Step (3): reduce Σ W_j^t (pre-update weights) to the master.
    param_views.clear();
    for (const auto& net : w.nets()) {
      param_views.push_back(net->arena().full_params());
    }
    reduce_sum(param_views, sum_w);

    // Step (4): Eq. (1) on every worker against the broadcast W̄_t.
    const float lr = cfg.lr_at(t);
    for (const auto& net : w.nets()) {
      easgd_worker_step(net->arena().full_params(),
                        net->arena().full_grads(), center, lr, cfg.rho);
    }
    // Step (5): Eq. (2) on the master.
    easgd_center_step_sum(center, sum_w, cfg.workers, lr, cfg.rho);

    // --- virtual time ---------------------------------------------------
    double tc = vtime;
    tc += data_s * fv.slow;
    res.ledger.charge_traced(Phase::kCpuGpuDataComm, data_s * fv.slow, tc);
    tc += fb_s * fv.slow;
    res.ledger.charge_traced(Phase::kForwardBackward, fb_s * fv.slow, tc);
    if (bucketed) {
      // Per-bucket comm spans at their pipelined positions: most land
      // INSIDE the forward/backward span — that intersection is what the
      // analysis overlap metric measures as hidden communication.
      for (std::size_t b = 0; b < bsched.wire.size(); ++b) {
        res.ledger.charge_traced(comm_phase, bsched.wire[b],
                                 vtime + bsched.timeline.finish[b]);
      }
      tc += bsched.exposed;
    } else {
      tc += comm_exposed;
      res.ledger.charge_traced(comm_phase, comm_exposed, tc);
    }
    tc += gup_s * fv.slow;
    res.ledger.charge_traced(Phase::kGpuUpdate, gup_s * fv.slow, tc);
    tc += master_up_s;
    res.ledger.charge_traced(master_up_phase, master_up_s, tc);
    vtime += iter_seconds;

    if (t % cfg.eval_every == 0 || t == cfg.iterations) {
      record_point(res, eval, center, t, vtime);
    }
  }
  finish(res, vtime, cfg.iterations);
  apply_modeled_wire(res, wire_msgs_per_iter, wire_bytes_per_iter);
  res.final_params.assign(center.begin(), center.end());
  return res;
}

RunResult run_sync_sgd(const AlgoContext& ctx, const GpuSystem& hw,
                       const FaultPlan& faults) {
  const TrainConfig& cfg = ctx.config;
  const obs::RankScope obs_rank(0);
  DS_TRACE_SPAN("algo", "run_sync_sgd");
  ReplicaSet w = make_workers(ctx);
  Evaluator eval(ctx.factory, *ctx.test, cfg.eval_samples);

  RunResult res;
  res.method = cfg.layout == MessageLayout::kPacked ? "Sync SGD (packed)"
                                                    : "Sync SGD (per-layer)";
  if (cfg.compression != GradCompression::kNone) {
    res.method += std::string(" + ") + compression_name(cfg.compression);
  }
  const bool bucketed = cfg.bucketing.enabled();
  if (bucketed) res.method += " (bucketed)";

  const double data_s = hw.data_copy_seconds(cfg.batch_size);
  const double fb_s = hw.fwd_bwd_seconds(cfg.batch_size);
  const double gup_s = hw.gpu_update_seconds();
  const double comm_s =
      2.0 * hw.p2p_collective_seconds(
                cfg.reduce_algo, cfg.layout,
                compression_bytes_factor(cfg.compression));
  const float inv_workers = 1.0f / static_cast<float>(cfg.workers);

  // Gradient compression state: one stateful 1-bit codec per worker (the
  // error-feedback residual is worker-local, as in Seide et al.).
  std::vector<OneBitCodec> onebit;
  if (cfg.compression == GradCompression::kOneBit) {
    DS_CHECK(w.net(0).arena().mode() == PackMode::kPacked,
             "gradient compression requires the packed arena layout");
    onebit.reserve(cfg.workers);
    for (std::size_t j = 0; j < cfg.workers; ++j) {
      onebit.emplace_back(w.net(0).param_count());
    }
  }
  Int8Codec::Blob int8_blob;
  OneBitCodec::Blob onebit_blob;

  const std::size_t layer_count = w.net(0).arena().layer_count();
  std::vector<std::span<const float>> grad_views;
  std::vector<float> layer_sum;

  const FaultView fv = view_faults(faults, cfg.workers);
  res.workers = cfg.workers;
  res.workers_survived = cfg.workers;

  // Bucketed pipeline (DESIGN.md §10): gradient buckets allreduce in
  // flight as backward retires them; only the comm tail past the backward
  // pass extends the iteration.
  BucketSchedule bsched;
  if (bucketed) {
    bsched = plan_bucketed_comm(
        w.net(0), cfg.bucketing.bucket_bytes, data_s, fb_s, fv.slow,
        hw.model().weight_bytes, [&](double bytes) {
          return 2.0 * collective_seconds(
                           cfg.reduce_algo, hw.gpus(),
                           bytes * compression_bytes_factor(cfg.compression),
                           hw.config().p2p_link);
        });
  }

  const double iter_seconds =
      data_s * fv.slow + fb_s * fv.slow + (bucketed ? bsched.exposed : comm_s) +
      gup_s * fv.slow;

  // Gradient allreduce between the GPUs: ranks-1 messages each way, with
  // compression shrinking the payload but not the message count. Bucketing
  // multiplies messages (one per bucket per hop), never bytes.
  const double wire_msgs_per_iter =
      2.0 * static_cast<double>(hw.gpus() - 1) *
      (bucketed ? static_cast<double>(bsched.plan.bucket_count())
                : (cfg.layout == MessageLayout::kPacked
                       ? 1.0
                       : static_cast<double>(hw.model().comm_layers)));
  const double wire_bytes_per_iter =
      2.0 * static_cast<double>(hw.gpus() - 1) * hw.model().weight_bytes *
      compression_bytes_factor(cfg.compression);

  double vtime = 0.0;
  for (std::size_t t = 1; t <= cfg.iterations; ++t) {
    if (round_crashes(res, fv, vtime + iter_seconds, t)) {
      if (res.trace.empty() || res.trace.back().iteration != t - 1) {
        TracePoint p = eval.evaluate(w.net(0).arena());
        p.iteration = t - 1;
        p.vtime = vtime;
        res.trace.push_back(p);
      }
      finish(res, vtime, t - 1);
      apply_modeled_wire(res, wire_msgs_per_iter, wire_bytes_per_iter);
      if (w.net(0).arena().mode() == PackMode::kPacked) {
        const auto params = w.net(0).arena().full_params();
        res.final_params.assign(params.begin(), params.end());
      }
      return res;
    }
    w.compute_gradients();

    // Lossy wire round-trip of each worker's gradient BEFORE the reduction:
    // the training math sees exactly what the compressed link delivers.
    if (cfg.compression == GradCompression::kInt8) {
      for (std::size_t j = 0; j < cfg.workers; ++j) {
        auto grads = w.net(j).arena().full_grads();
        Int8Codec::encode(grads, int8_blob);
        Int8Codec::decode(int8_blob, grads);
      }
    } else if (cfg.compression == GradCompression::kOneBit) {
      for (std::size_t j = 0; j < cfg.workers; ++j) {
        auto grads = w.net(j).arena().full_grads();
        onebit[j].encode(grads, onebit_blob);
        OneBitCodec::decode(onebit_blob, grads);
      }
    }

    // Gradient allreduce, layer-aware so per-layer arenas work too.
    for (std::size_t l = 0; l < layer_count; ++l) {
      const std::size_t n = w.net(0).arena().layer_grads(l).size();
      if (n == 0) continue;
      grad_views.clear();
      for (const auto& net : w.nets()) {
        grad_views.push_back(net->arena().layer_grads(l));
      }
      layer_sum.resize(n);
      reduce_sum(grad_views, layer_sum);
      scale(inv_workers, layer_sum);
      for (const auto& net : w.nets()) {
        copy(layer_sum, net->arena().layer_grads(l));
      }
    }
    const float lr = cfg.lr_at(t);
    for (const auto& net : w.nets()) {
      for (std::size_t l = 0; l < layer_count; ++l) {
        sgd_step(net->arena().layer_params(l), net->arena().layer_grads(l),
                 lr);
      }
    }

    double tc = vtime;
    tc += data_s * fv.slow;
    res.ledger.charge_traced(Phase::kCpuGpuDataComm, data_s * fv.slow, tc);
    tc += fb_s * fv.slow;
    res.ledger.charge_traced(Phase::kForwardBackward, fb_s * fv.slow, tc);
    if (bucketed) {
      for (std::size_t b = 0; b < bsched.wire.size(); ++b) {
        res.ledger.charge_traced(Phase::kGpuGpuParamComm, bsched.wire[b],
                                 vtime + bsched.timeline.finish[b]);
      }
      tc += bsched.exposed;
    } else {
      tc += comm_s;
      res.ledger.charge_traced(Phase::kGpuGpuParamComm, comm_s, tc);
    }
    tc += gup_s * fv.slow;
    res.ledger.charge_traced(Phase::kGpuUpdate, gup_s * fv.slow, tc);
    vtime += iter_seconds;

    if (t % cfg.eval_every == 0 || t == cfg.iterations) {
      TracePoint p = eval.evaluate(w.net(0).arena());
      p.iteration = t;
      p.vtime = vtime;
      res.trace.push_back(p);
    }
  }
  finish(res, vtime, cfg.iterations);
  apply_modeled_wire(res, wire_msgs_per_iter, wire_bytes_per_iter);
  // Per-layer arenas have no packed view; leave final_params empty there.
  if (w.net(0).arena().mode() == PackMode::kPacked) {
    const auto params = w.net(0).arena().full_params();
    res.final_params.assign(params.begin(), params.end());
  }
  return res;
}

}  // namespace ds
