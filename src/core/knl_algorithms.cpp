#include "core/knl_algorithms.hpp"

#include "core/run_harness.hpp"
#include "support/error.hpp"

namespace ds {
namespace {

/// Batch-sampler seed of node 0; node j draws from its own local data copy
/// with seed plus j (Algorithm 4 line 10: "KNL_j randomly pick b samples
/// from local memory").
std::uint64_t first_node_seed(const TrainConfig& cfg) {
  return cfg.seed * 15485863;
}

}  // namespace

RunResult run_cluster_sync_easgd(const AlgoContext& ctx,
                                 const ClusterTiming& timing) {
  const TrainConfig& cfg = ctx.config;
  ModeledRun run(ctx, "run_cluster_sync_easgd", cfg.workers,
                 first_node_seed(cfg), ModeledRun::Model::kCenter,
                 cfg.iterations);
  run.res.method = "Comm-Efficient EASGD (KNL, Algorithm 4)";

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
  const double iter_seconds = fb_s + comm_s + 2.0 * up_s;

  for (std::size_t t = 1; t <= cfg.iterations; ++t) {
    run.replicas.compute_gradients();
    run.easgd_round(cfg.lr_at(t));

    ChargeChain c = run.chain();
    c.then(Phase::kForwardBackward, fb_s);
    c.then(Phase::kGpuGpuParamComm, comm_s);
    c.then(Phase::kGpuUpdate, up_s);
    c.then(Phase::kCpuUpdate, up_s);
    run.round_done(t, iter_seconds);
  }
  // Tree broadcast + reduce over the nodes: workers-1 messages each way.
  const double hops = 2.0 * static_cast<double>(cfg.workers - 1);
  return run.finish(hops, hops * timing.model.weight_bytes);
}

KnlPartitionResult run_knl_partition(const AlgoContext& ctx,
                                     const KnlChip& chip,
                                     const KnlPartitionConfig& pcfg) {
  const TrainConfig& cfg = ctx.config;
  DS_CHECK(pcfg.parts > 0, "need at least one partition");
  ModeledRun run(ctx, "run_knl_partition", pcfg.parts, first_node_seed(cfg),
                 ModeledRun::Model::kReplica0, pcfg.max_rounds);

  KnlPartitionResult result;
  result.parts = pcfg.parts;
  run.res.method = "KNL partition P=" + std::to_string(pcfg.parts);

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

  const float lr_scale = pcfg.scale_lr_with_parts
                             ? static_cast<float>(pcfg.parts)
                             : 1.0f;

  for (std::size_t round = 1; round <= pcfg.max_rounds; ++round) {
    // Divide: every partition computes a gradient on its own batch.
    run.replicas.compute_gradients();
    // Conquer: tree-sum the gradients; every partition gets the sum and
    // updates its own weight copy (§6.2) — copies stay bit-identical.
    run.sgd_round(cfg.lr_at(round) * lr_scale);

    run.chain().then(Phase::kForwardBackward, result.round_seconds);
    const TracePoint* p = run.round_done(round, result.round_seconds);
    if (p != nullptr && p->accuracy >= pcfg.target_accuracy) {
      result.reached_target = true;
      break;
    }
  }
  result.run = run.finish();
  result.rounds = result.run.iterations;
  result.seconds_to_target = result.run.total_seconds;
  return result;
}

}  // namespace ds
