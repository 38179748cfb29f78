#include "core/replica_set.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <thread>

#include "core/evaluator.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace ds {
namespace {

/// Logit columns of `net`: the width of its last layer's output.
std::size_t class_count(const Network& net) {
  std::vector<std::size_t> dims{1};
  const std::vector<std::size_t>& sample = net.input_shape().dims();
  dims.insert(dims.end(), sample.begin(), sample.end());
  Shape s(std::move(dims));
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    s = net.layer(i).output_shape(s);
  }
  return s.dim(1);
}

/// Copies `arena`'s weights into `packed`, layer by layer (a per-layer
/// arena has no packed view).
void save_params(const ParamArena& arena, std::span<float> packed) {
  std::size_t at = 0;
  for (std::size_t l = 0; l < arena.layer_count(); ++l) {
    const std::span<const float> layer = arena.layer_params(l);
    copy(layer, packed.subspan(at, layer.size()));
    at += layer.size();
  }
}

/// The inverse of save_params.
void load_params(std::span<const float> packed, ParamArena& arena) {
  std::size_t at = 0;
  for (std::size_t l = 0; l < arena.layer_count(); ++l) {
    const std::span<float> layer = arena.layer_params(l);
    copy(packed.subspan(at, layer.size()), layer);
    at += layer.size();
  }
}

}  // namespace

ReplicaSet::ReplicaSet(const AlgoContext& ctx, std::size_t count,
                       std::uint64_t first_seed)
    : batch_size_(ctx.config.batch_size),
      test_(*ctx.test),
      probe_rows_(std::min(ctx.config.eval_samples, ctx.test->size())) {
  DS_CHECK(count > 0, "need at least one worker");
  nets_.reserve(count);
  inputs_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    nets_.push_back(ctx.factory());
    if (i > 0) nets_[i]->copy_params_from(*nets_[0]);
    inputs_.emplace_back(BatchSampler(*ctx.train, batch_size_, first_seed + i));
  }
  logits_ = Tensor({probe_rows_, class_count(*nets_[0])});
  threads_ = std::min<std::size_t>(
      count, std::max(1u, std::thread::hardware_concurrency()));
}

void ReplicaSet::for_each(const std::function<void(std::size_t)>& task) {
  // A replica's first step grows its buffers (activations, kernel scratch,
  // batches). Grown concurrently, the allocations interleave in a
  // nondeterministic order and fragment the heap, so until every replica
  // has stepped, the replicas run serially.
  const bool grown = std::all_of(inputs_.begin(), inputs_.end(),
                                 [](const Input& in) { return in.stepped; });
  if (!grown || threads_ == 1) {
    for (std::size_t j = 0; j < size(); ++j) task(j);
    return;
  }
  if (!pool_) pool_ = std::make_unique<ThreadPool>(threads_);
  // Workers inherit the caller's kernel choices, but never its intra-GEMM
  // threading: one replica per core already fills the machine.
  KernelConfig worker_config = kernel_config();
  worker_config.gemm_threads = 1;
  const std::int64_t rank = obs::thread_rank();
  pool_->parallel_for(size(), [&](std::size_t j) {
    kernel_config() = worker_config;
    const obs::RankScope obs_rank(rank);
    task(j);
  });
}

void ReplicaSet::compute_gradient(std::size_t j) {
  Input& in = inputs_[j];
  in.sampler.next(in.batch, in.labels);
  nets_[j]->zero_grads();
  nets_[j]->forward_backward(in.batch, in.labels);
  in.stepped = true;
}

void ReplicaSet::compute_gradients() {
  for_each([this](std::size_t j) { compute_gradient(j); });
}

TracePoint ReplicaSet::probe(std::span<const float> weights) {
  DS_CHECK(weights.empty() || weights.size() == nets_[0]->param_count(),
           "probe weights " << weights.size() << " vs "
                            << nets_[0]->param_count() << " params");
  for_each([&](std::size_t j) { probe_share(j, weights); });
  return reduce_logits(logits_, std::span(test_.labels).first(probe_rows_));
}

void ReplicaSet::probe_share(std::size_t j, std::span<const float> weights) {
  // Contiguous shares, the first probe_rows_ % size() replicas one row
  // longer.
  const std::size_t base = probe_rows_ / size();
  const std::size_t extra = probe_rows_ % size();
  const std::size_t begin = j * base + std::min(j, extra);
  const std::size_t end = begin + base + (j < extra ? 1 : 0);
  if (begin == end) return;

  Network& net = *nets_[j];
  Input& in = inputs_[j];
  // Replica 0 probing its own weights is the one replica with no swap.
  const bool swap = j > 0 || !weights.empty();
  if (swap) {
    in.stash.resize(net.param_count());
    save_params(net.arena(), in.stash);
    if (weights.empty()) {
      net.copy_params_from(*nets_[0]);
    } else {
      load_params(weights, net.arena());
    }
  }
  const std::size_t classes = logits_.dim(1);
  for (std::size_t row = begin; row < end; row += batch_size_) {
    in.rows.resize(std::min(batch_size_, end - row));
    std::iota(in.rows.begin(), in.rows.end(), row);
    gather_batch(test_, in.rows, in.batch, in.labels);
    const Tensor& out = net.infer(in.batch);
    std::memcpy(logits_.data() + row * classes, out.data(),
                out.numel() * sizeof(float));
  }
  if (swap) load_params(in.stash, net.arena());
}

}  // namespace ds
