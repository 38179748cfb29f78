#include "core/knl_algorithms.hpp"

#include <algorithm>
#include <utility>

#include "comm/collectives.hpp"
#include "core/easgd_rules.hpp"
#include "core/evaluator.hpp"
#include "core/replica_set.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "tensor/ops.hpp"

namespace ds {
namespace {

/// Each node draws from its own local data copy with its own stream
/// (Algorithm 4 line 10: "KNL_j randomly pick b samples from local
/// memory").
ReplicaSet make_nodes(const AlgoContext& ctx, std::size_t count) {
  const std::uint64_t seed = ctx.config.seed;
  return ReplicaSet(ctx, count,
                    [seed](std::size_t i) { return seed * 15485863 + i; });
}

}  // namespace

RunResult run_cluster_sync_easgd(const AlgoContext& ctx,
                                 const ClusterTiming& timing) {
  const TrainConfig& cfg = ctx.config;
  const obs::RankScope obs_rank(0);
  DS_TRACE_SPAN("algo", "run_cluster_sync_easgd");
  ReplicaSet nodes = make_nodes(ctx, cfg.workers);
  Evaluator eval(ctx.factory, *ctx.test, cfg.eval_samples);

  std::vector<float> center(nodes.net(0).arena().full_params().begin(),
                            nodes.net(0).arena().full_params().end());
  std::vector<float> sum_w(center.size());

  RunResult res;
  res.method = "Comm-Efficient EASGD (KNL, Algorithm 4)";

  // Per-iteration costs: local compute, packed tree broadcast + reduction
  // over the inter-node network, local updates. No host<->device data
  // copies — the data is node-local (line 1).
  const double fb_s = static_cast<double>(cfg.batch_size) *
                      timing.model.flops_per_sample / timing.node_flops;
  const double comm_s = 2.0 * static_cast<double>(tree_rounds(cfg.workers)) *
                        timing.network.transfer_seconds(
                            timing.model.weight_bytes);
  const double params = timing.model.weight_bytes / 4.0;
  const double up_s =
      params * timing.update_flops_per_param / timing.node_flops;

  std::vector<std::span<const float>> views;
  views.reserve(cfg.workers);

  double vtime = 0.0;
  for (std::size_t t = 1; t <= cfg.iterations; ++t) {
    nodes.compute_gradients();
    views.clear();
    for (const auto& net : nodes.nets()) {
      views.push_back(net->arena().full_params());
    }
    reduce_sum(views, sum_w);
    const float lr = cfg.lr_at(t);
    for (const auto& net : nodes.nets()) {
      easgd_worker_step(net->arena().full_params(),
                        net->arena().full_grads(), center, lr, cfg.rho);
    }
    easgd_center_step_sum(center, sum_w, cfg.workers, lr, cfg.rho);

    double tc = vtime;
    tc += fb_s;
    res.ledger.charge_traced(Phase::kForwardBackward, fb_s, tc);
    tc += comm_s;
    res.ledger.charge_traced(Phase::kGpuGpuParamComm, comm_s, tc);
    tc += up_s;
    res.ledger.charge_traced(Phase::kGpuUpdate, up_s, tc);
    tc += up_s;
    res.ledger.charge_traced(Phase::kCpuUpdate, up_s, tc);
    vtime += fb_s + comm_s + 2.0 * up_s;

    if (t % cfg.eval_every == 0 || t == cfg.iterations) {
      TracePoint p = eval.evaluate_packed(center);
      p.iteration = t;
      p.vtime = vtime;
      res.trace.push_back(p);
    }
  }
  res.total_seconds = vtime;
  res.iterations = cfg.iterations;
  if (!res.trace.empty()) {
    res.final_accuracy = res.trace.back().accuracy;
    res.final_loss = res.trace.back().loss;
  }
  res.final_params = std::move(center);
  // Tree broadcast + reduce over the nodes: workers-1 messages each way.
  res.messages_sent = 2 * (cfg.workers - 1) * cfg.iterations;
  res.bytes_sent = static_cast<std::uint64_t>(
      2.0 * static_cast<double>(cfg.workers - 1) * timing.model.weight_bytes *
      static_cast<double>(cfg.iterations));
  obs::metrics()
      .counter(obs::names::kCommMessagesModeled)
      .add(res.messages_sent);
  obs::metrics().counter(obs::names::kCommBytesModeled).add(res.bytes_sent);
  return res;
}

KnlPartitionResult run_knl_partition(const AlgoContext& ctx,
                                     const KnlChip& chip,
                                     const KnlPartitionConfig& pcfg) {
  const TrainConfig& cfg = ctx.config;
  const obs::RankScope obs_rank(0);
  DS_TRACE_SPAN("algo", "run_knl_partition");
  DS_CHECK(pcfg.parts > 0, "need at least one partition");
  ReplicaSet parts = make_nodes(ctx, pcfg.parts);
  Evaluator eval(ctx.factory, *ctx.test, cfg.eval_samples);

  KnlPartitionResult result;
  result.parts = pcfg.parts;
  result.run.method = "KNL partition P=" + std::to_string(pcfg.parts);

  const double bytes_per_sample =
      pcfg.paper_model.flops_per_sample / pcfg.arithmetic_intensity;
  result.round_seconds = chip.round_seconds(
      pcfg.parts, cfg.batch_size, pcfg.paper_model.flops_per_sample,
      bytes_per_sample, pcfg.paper_model.weight_bytes, pcfg.data_copy_bytes);
  result.footprint_gb =
      chip.footprint_bytes(pcfg.parts, pcfg.paper_model.weight_bytes,
                           pcfg.data_copy_bytes) /
      (1024.0 * 1024.0 * 1024.0);
  result.bandwidth_gbs =
      chip.effective_bandwidth(pcfg.parts, pcfg.paper_model.weight_bytes,
                               pcfg.data_copy_bytes) /
      1.0e9;

  const std::size_t layer_count = parts.net(0).arena().layer_count();
  std::vector<std::span<const float>> grad_views;
  std::vector<float> layer_sum;
  const float inv_parts = 1.0f / static_cast<float>(pcfg.parts);
  const float lr_scale = pcfg.scale_lr_with_parts
                             ? static_cast<float>(pcfg.parts)
                             : 1.0f;

  double vtime = 0.0;
  for (std::size_t round = 1; round <= pcfg.max_rounds; ++round) {
    // Divide: every partition computes a gradient on its own batch.
    parts.compute_gradients();
    // Conquer: tree-sum the gradients; every partition gets the sum and
    // updates its own weight copy (§6.2) — copies stay bit-identical.
    for (std::size_t l = 0; l < layer_count; ++l) {
      const std::size_t n = parts.net(0).arena().layer_grads(l).size();
      if (n == 0) continue;
      grad_views.clear();
      for (const auto& net : parts.nets()) {
        grad_views.push_back(net->arena().layer_grads(l));
      }
      layer_sum.resize(n);
      reduce_sum(grad_views, layer_sum);
      scale(inv_parts, layer_sum);
      for (const auto& net : parts.nets()) {
        copy(layer_sum, net->arena().layer_grads(l));
        sgd_step(net->arena().layer_params(l), net->arena().layer_grads(l),
                 cfg.lr_at(round) * lr_scale);
      }
    }

    vtime += result.round_seconds;
    result.run.ledger.charge_traced(Phase::kForwardBackward,
                                    result.round_seconds, vtime);

    if (round % cfg.eval_every == 0 || round == pcfg.max_rounds) {
      TracePoint p = eval.evaluate(parts.net(0).arena());
      p.iteration = round;
      p.vtime = vtime;
      result.run.trace.push_back(p);
      result.rounds = round;
      if (p.accuracy >= pcfg.target_accuracy) {
        result.reached_target = true;
        result.seconds_to_target = vtime;
        break;
      }
    }
  }
  if (!result.reached_target) result.seconds_to_target = vtime;
  result.run.total_seconds = vtime;
  result.run.iterations = result.rounds;
  if (!result.run.trace.empty()) {
    result.run.final_accuracy = result.run.trace.back().accuracy;
    result.run.final_loss = result.run.trace.back().loss;
  }
  return result;
}

}  // namespace ds
