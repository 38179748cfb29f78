#include "core/replica_set.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "core/evaluator.hpp"
#include "nn/forward_lanes.hpp"
#include "support/error.hpp"

namespace ds {

std::vector<TracePoint> probe_on_lanes(
    ThreadPool& pool, std::span<const std::unique_ptr<Network>> lanes,
    std::span<Tensor> inputs, const AlgoContext& ctx,
    std::span<const Snapshot> snapshots) {
  const std::size_t rows = std::min(ctx.config.eval_samples, ctx.test->size());
  const std::size_t chunk = ctx.config.batch_size;
  std::vector<std::size_t> row_ids(rows);
  std::iota(row_ids.begin(), row_ids.end(), 0);
  std::vector<ForwardJob> jobs;
  for (const Snapshot& snap : snapshots) {
    for (std::size_t row = 0; row < rows; row += chunk) {
      jobs.push_back({snap.weights, std::span(row_ids).subspan(
                                        row, std::min(chunk, rows - row))});
    }
  }
  const std::size_t chunks = (rows + chunk - 1) / chunk;
  std::vector<Tensor> logits(snapshots.size(),
                             Tensor({rows, lanes[0]->classes()}));
  run_forwards(pool, lanes, inputs, *ctx.test, jobs,
               [&](std::size_t i, const Tensor& out) {
                 Tensor& to = logits[i / chunks];
                 std::memcpy(to.data() + (i % chunks) * chunk * to.dim(1),
                             out.data(), out.numel() * sizeof(float));
               });
  std::vector<TracePoint> points;
  for (std::size_t k = 0; k < snapshots.size(); ++k) {
    TracePoint& p = points.emplace_back(
        reduce_logits(logits[k], std::span(ctx.test->labels).first(rows)));
    p.iteration = snapshots[k].iteration;
    p.vtime = snapshots[k].vtime;
  }
  return points;
}

ReplicaSet::ReplicaSet(const AlgoContext& ctx, std::size_t count,
                       std::uint64_t first_seed)
    : ctx_(ctx), pool_(worker_threads(count)) {
  DS_CHECK(count > 0, "need at least one worker");
  nets_.reserve(count);
  inputs_.reserve(count);
  batches_.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    nets_.push_back(ctx.factory());
    if (i > 0) nets_[i]->copy_params_from(*nets_[0]);
    inputs_.emplace_back(
        BatchSampler(*ctx.train, ctx.config.batch_size, first_seed + i));
  }
}

void ReplicaSet::compute_gradient(std::size_t j) {
  Input& in = inputs_[j];
  in.sampler.next(batches_[j], in.labels);
  nets_[j]->zero_grads();
  nets_[j]->forward_backward(batches_[j], in.labels);
}

void ReplicaSet::compute_gradients() {
  worker_parallel_for(pool_, size(),
                      [this](std::size_t j) { compute_gradient(j); });
}

TracePoint ReplicaSet::probe(Snapshot snapshot) {
  worker_parallel_for(pool_, size(), [this](std::size_t j) {
    inputs_[j].stash.resize(nets_[j]->param_count());
    nets_[j]->arena().save_params(inputs_[j].stash);
  });
  if (snapshot.weights.empty()) snapshot.weights = inputs_[0].stash;
  const TracePoint point =
      probe_on_lanes(pool_, nets_, batches_, ctx_, {&snapshot, 1})[0];
  worker_parallel_for(pool_, size(), [this](std::size_t j) {
    nets_[j]->arena().load_params(inputs_[j].stash);
  });
  return point;
}

}  // namespace ds
