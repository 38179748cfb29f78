#include "core/sync_algorithms.hpp"

#include <algorithm>
#include <functional>
#include <optional>

#include "comm/bucket.hpp"
#include "core/easgd_rules.hpp"
#include "core/run_harness.hpp"
#include "support/error.hpp"
#include "tensor/ops.hpp"

namespace ds {
namespace {

/// Batch-sampler seed of worker 0; worker i draws with this plus i.
std::uint64_t first_worker_seed(const TrainConfig& cfg) {
  return cfg.seed * 7919 + 1;
}

/// A sync round's exchange: one full-pass collective after backward, or
/// with bucketing enabled the per-bucket pipeline (DESIGN.md §10). Bucketed,
/// gradients retire across the backward 2/3 of the forward+backward span,
/// apportioned by per-layer flops; each bucket's exchange starts at its
/// retire time and the link serializes the in-flight buckets. The math of
/// the round is UNTOUCHED — bucketing only reshapes when communication is
/// charged, which is what keeps bucketed results bitwise-identical to the
/// full-pass baseline.
struct Exchange {
  struct Buckets {
    BucketPlan plan;
    std::vector<double> wire;  // per-bucket exchange seconds
    BucketTimeline timeline;   // relative to the round's start
    double exposed = 0.0;      // comm past the end of (data + f/b)
  };
  double full_s = 0.0;  // the full-pass exchange's seconds
  std::optional<Buckets> buckets;

  /// Seconds the exchange adds to the round: all of it, or only the tail
  /// left exposed past the backward pass.
  double exposed() const { return buckets ? buckets->exposed : full_s; }

  /// Messages each hop splits into: one per bucket, one packed message, or
  /// one per learnable tensor.
  double messages_per_hop(MessageLayout layout, const GpuSystem& hw) const {
    if (buckets) return static_cast<double>(buckets->plan.bucket_count());
    return layout == MessageLayout::kPacked
               ? 1.0
               : static_cast<double>(hw.model().comm_layers);
  }

  /// Bucketed, the per-bucket spans land at their pipelined positions —
  /// most INSIDE the forward/backward span, the intersection the analysis
  /// overlap metric measures as hidden communication — and only the
  /// exposed tail extends the chain.
  void bill(ChargeChain& c, Phase phase) const {
    if (!buckets) {
      c.then(phase, full_s);
      return;
    }
    for (std::size_t b = 0; b < buckets->wire.size(); ++b) {
      c.ledger.charge_traced(phase, buckets->wire[b],
                             c.start + buckets->timeline.finish[b]);
    }
    c.end += buckets->exposed;
  }
};

/// The exchange under cfg.bucketing: `full_s` per round, or buckets whose
/// exchange of `bytes` takes bucket_exchange_seconds(bytes).
Exchange plan_exchange(
    const TrainConfig& cfg, const Network& net, double data_s, double fb_s,
    double slow, double model_weight_bytes, double full_s,
    const std::function<double(double)>& bucket_exchange_seconds) {
  if (!cfg.bucketing.enabled()) return {full_s, std::nullopt};
  Exchange::Buckets s;
  s.plan = BucketPlan(net.arena().layer_sizes(), cfg.bucketing.bucket_bytes);
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
  }
  s.timeline = bucket_timeline(ready, s.wire);
  s.exposed = s.timeline.exposed_after((data_s + fb_s) * slow);
  return {full_s, std::move(s)};
}

}  // namespace

RunResult run_original_easgd(const AlgoContext& ctx, const GpuSystem& hw,
                             OriginalVariant variant,
                             const FaultPlan& faults) {
  const TrainConfig& cfg = ctx.config;
  // Center weights live on the host (Algorithm 1 keeps W̄ CPU-side; the
  // multi-GPU variant pins it to GPU0 but every exchange still crosses the
  // host link in the baseline implementation).
  ModeledRun run(ctx, "run_original_easgd", cfg.workers, first_worker_seed(cfg),
                 ModeledRun::Model::kCenter, cfg.iterations, faults);
  std::vector<float> worker_snapshot(run.center.size());
  run.res.method = variant == OriginalVariant::kOverlapped
                       ? "Original EASGD"
                       : "Original EASGD*";

  // The baseline predates the single-layer packing of §5.2: every weight
  // transfer is one message per learnable tensor.
  const double hop = hw.host_param_hop_seconds(MessageLayout::kPerLayer);
  const double data_s = hw.data_copy_seconds(cfg.batch_size);
  const double fb_s = hw.fwd_bwd_seconds(cfg.batch_size);
  const double gup_s = hw.gpu_update_seconds();
  const double cup_s = hw.cpu_update_seconds();

  for (std::size_t t = 1; t <= cfg.iterations; ++t) {
    const std::size_t j = (t - 1) % cfg.workers;  // round-robin (§3.3)

    // Virtual time first, so a crash aborts the round before its math
    // commits. Round-robin only gates on the ACTIVE worker, so its own
    // straggler factor — not the cluster max — stretches this round.
    const double slow = faults.straggler_for(j);
    const double param_s = 2.0 * hop;  // W̄ down + W_j up
    const double fb_charged =
        (variant == OriginalVariant::kOverlapped
             ? std::max(0.0, fb_s - param_s)  // pipelined behind transfers
             : fb_s) *
        slow;
    const double iter_seconds =
        data_s * slow + param_s + fb_charged + gup_s * slow + cup_s;
    if (!run.survives(t, iter_seconds)) break;

    run.replicas.compute_gradient(j);
    Network& net = run.replicas.net(j);
    const float lr = cfg.lr_at(t);
    // "CPU gets W_j from j-th GPU" (line 12): snapshot pre-update weights.
    copy(net.arena().full_params(), worker_snapshot);
    // Line 13, Eq. (1) on the device against W̄_t.
    easgd_worker_step(net.arena().full_params(), net.arena().full_grads(),
                      run.center, lr, cfg.rho);
    // Line 14, Eq. (2) on the host against the transmitted W_j^t.
    easgd_center_step(run.center, worker_snapshot, lr, cfg.rho);

    ChargeChain c = run.chain();
    c.then(Phase::kCpuGpuDataComm, data_s * slow);
    c.then(Phase::kCpuGpuParamComm, param_s);
    c.then(Phase::kForwardBackward, fb_charged);
    c.then(Phase::kGpuUpdate, gup_s * slow);
    c.then(Phase::kCpuUpdate, cup_s);
    run.round_done(t, iter_seconds);
  }
  // Per-layer messages in both directions of the host hop, every iteration.
  return run.finish(2.0 * static_cast<double>(hw.model().comm_layers),
                    2.0 * hw.model().weight_bytes);
}

RunResult run_sync_easgd(const AlgoContext& ctx, const GpuSystem& hw,
                         SyncEasgdVariant variant, const FaultPlan& faults) {
  const TrainConfig& cfg = ctx.config;
  ModeledRun run(ctx, "run_sync_easgd", cfg.workers, first_worker_seed(cfg),
                 ModeledRun::Model::kCenter, cfg.iterations, faults);
  switch (variant) {
    case SyncEasgdVariant::kEasgd1: run.res.method = "Sync EASGD1"; break;
    case SyncEasgdVariant::kEasgd2: run.res.method = "Sync EASGD2"; break;
    case SyncEasgdVariant::kEasgd3: run.res.method = "Sync EASGD3"; break;
  }
  if (cfg.bucketing.enabled()) run.res.method += " (bucketed)";

  if (variant != SyncEasgdVariant::kEasgd1) {
    DS_CHECK(hw.weights_fit_on_device(),
             "Sync EASGD2/3 keep the full weight copy on the device "
             "(§6.1.2) — model too large for device memory");
  }

  // Costs shared by every iteration.
  const double slow = run.slow;
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
  const double master_up_s =
      device_master ? hw.gpu_update_seconds() : hw.cpu_update_seconds();
  const Phase comm_phase =
      device_master ? Phase::kGpuGpuParamComm : Phase::kCpuGpuParamComm;
  const Phase master_up_phase =
      device_master ? Phase::kGpuUpdate : Phase::kCpuUpdate;

  // Broadcast + reduce move ranks-1 messages each per iteration over the
  // collective group (host joins the group when it is the master).
  const std::size_t coll_ranks = device_master ? hw.gpus() : hw.gpus() + 1;

  // EASGD3 overlaps steps 7–10 (data + f/b) with 11–12 (device collectives);
  // the residual models switch contention that cannot be hidden (§6.1.3).
  const double comm_exposed =
      variant == SyncEasgdVariant::kEasgd3
          ? comm_full * hw.config().overlap_residual
          : comm_full;
  // Bucketed pipeline (DESIGN.md §10): the EASGD exchange of a bucket —
  // reduce of the workers' pre-update W slice + broadcast of the W̄ slice —
  // launches as soon as backward retires the slice (the worker's Eq. (1)
  // for the slice needs its gradient, so retire time is the earliest the
  // slice is both shippable and finalizable). Only comm left exposed past
  // the backward pass extends the iteration; EASGD3's overlap_residual is
  // superseded — bucketing IS the overlap mechanism here.
  const LinkModel& link =
      device_master ? hw.config().p2p_link : hw.config().host_link;
  const Exchange exchange = plan_exchange(
      cfg, run.replicas.net(0), data_s, fb_s, slow, hw.model().weight_bytes,
      comm_exposed, [&](double bytes) {
        return 2.0 *
               collective_seconds(cfg.reduce_algo, coll_ranks, bytes, link);
      });

  // Every round gates on the slowest replica, so one straggler stretches
  // the worker-parallel phases of the whole cluster.
  const double iter_seconds = data_s * slow + fb_s * slow +
                              exchange.exposed() + gup_s * slow + master_up_s;

  const double hop_msgs = static_cast<double>(coll_ranks - 1) *
                          exchange.messages_per_hop(cfg.layout, hw);
  const double wire_bytes_per_iter =
      2.0 * static_cast<double>(coll_ranks - 1) * hw.model().weight_bytes;

  for (std::size_t t = 1; t <= cfg.iterations && run.survives(t, iter_seconds);
       ++t) {
    // Step (1): every worker computes its sub-gradient in parallel; steps
    // (3)–(5): reduce ΣW_j^t, Eq. (1) on the workers, Eq. (2) on the master.
    run.replicas.compute_gradients();
    run.easgd_round(cfg.lr_at(t));

    ChargeChain c = run.chain();
    c.then(Phase::kCpuGpuDataComm, data_s * slow);
    c.then(Phase::kForwardBackward, fb_s * slow);
    exchange.bill(c, comm_phase);
    c.then(Phase::kGpuUpdate, gup_s * slow);
    c.then(master_up_phase, master_up_s);
    run.round_done(t, iter_seconds);
  }
  return run.finish(2.0 * hop_msgs, wire_bytes_per_iter);
}

RunResult run_sync_sgd(const AlgoContext& ctx, const GpuSystem& hw,
                       const FaultPlan& faults) {
  const TrainConfig& cfg = ctx.config;
  ModeledRun run(ctx, "run_sync_sgd", cfg.workers, first_worker_seed(cfg),
                 ModeledRun::Model::kReplica0, cfg.iterations, faults);
  run.res.method = cfg.layout == MessageLayout::kPacked
                       ? "Sync SGD (packed)"
                       : "Sync SGD (per-layer)";
  if (cfg.compression != GradCompression::kNone) {
    run.res.method += std::string(" + ") + compression_name(cfg.compression);
  }
  if (cfg.bucketing.enabled()) run.res.method += " (bucketed)";

  const double slow = run.slow;
  const double data_s = hw.data_copy_seconds(cfg.batch_size);
  const double fb_s = hw.fwd_bwd_seconds(cfg.batch_size);
  const double gup_s = hw.gpu_update_seconds();

  // Gradient compression state: one stateful 1-bit codec per worker (the
  // error-feedback residual is worker-local, as in Seide et al.).
  std::vector<OneBitCodec> onebit;
  if (cfg.compression == GradCompression::kOneBit) {
    DS_CHECK(run.replicas.net(0).arena().mode() == PackMode::kPacked,
             "gradient compression requires the packed arena layout");
    onebit.reserve(cfg.workers);
    for (std::size_t j = 0; j < cfg.workers; ++j) {
      onebit.emplace_back(run.replicas.net(0).param_count());
    }
  }
  Int8Codec::Blob int8_blob;
  OneBitCodec::Blob onebit_blob;

  // Bucketed pipeline (DESIGN.md §10): gradient buckets allreduce in
  // flight as backward retires them; only the comm tail past the backward
  // pass extends the iteration.
  const double wire_factor = compression_bytes_factor(cfg.compression);
  const Exchange exchange = plan_exchange(
      cfg, run.replicas.net(0), data_s, fb_s, slow, hw.model().weight_bytes,
      2.0 * hw.p2p_collective_seconds(cfg.reduce_algo, cfg.layout,
                                      wire_factor),
      [&](double bytes) {
        return 2.0 * collective_seconds(cfg.reduce_algo, hw.gpus(),
                                        bytes * wire_factor,
                                        hw.config().p2p_link);
      });

  const double iter_seconds =
      data_s * slow + fb_s * slow + exchange.exposed() + gup_s * slow;

  // Gradient allreduce between the GPUs: ranks-1 messages each way, with
  // compression shrinking the payload but not the message count. Bucketing
  // multiplies messages (one per bucket per hop), never bytes.
  const double wire_msgs_per_iter = 2.0 *
                                    static_cast<double>(hw.gpus() - 1) *
                                    exchange.messages_per_hop(cfg.layout, hw);
  const double wire_bytes_per_iter =
      2.0 * static_cast<double>(hw.gpus() - 1) * hw.model().weight_bytes *
      wire_factor;

  for (std::size_t t = 1; t <= cfg.iterations && run.survives(t, iter_seconds);
       ++t) {
    run.replicas.compute_gradients();

    // Lossy wire round-trip of each worker's gradient BEFORE the reduction:
    // the training math sees exactly what the compressed link delivers.
    if (cfg.compression == GradCompression::kInt8) {
      for (std::size_t j = 0; j < cfg.workers; ++j) {
        auto grads = run.replicas.net(j).arena().full_grads();
        Int8Codec::encode(grads, int8_blob);
        Int8Codec::decode(int8_blob, grads);
      }
    } else if (cfg.compression == GradCompression::kOneBit) {
      for (std::size_t j = 0; j < cfg.workers; ++j) {
        auto grads = run.replicas.net(j).arena().full_grads();
        onebit[j].encode(grads, onebit_blob);
        OneBitCodec::decode(onebit_blob, grads);
      }
    }
    run.sgd_round(cfg.lr_at(t));

    ChargeChain c = run.chain();
    c.then(Phase::kCpuGpuDataComm, data_s * slow);
    c.then(Phase::kForwardBackward, fb_s * slow);
    exchange.bill(c, Phase::kGpuGpuParamComm);
    c.then(Phase::kGpuUpdate, gup_s * slow);
    run.round_done(t, iter_seconds);
  }
  return run.finish(wire_msgs_per_iter, wire_bytes_per_iter);
}

}  // namespace ds
