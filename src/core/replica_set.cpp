#include "core/replica_set.hpp"

#include <algorithm>
#include <thread>

#include "obs/trace.hpp"
#include "support/error.hpp"
#include "tensor/gemm.hpp"

namespace ds {

ReplicaSet::ReplicaSet(const AlgoContext& ctx, std::size_t count,
                       std::uint64_t first_seed) {
  DS_CHECK(count > 0, "need at least one worker");
  nets_.reserve(count);
  inputs_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    nets_.push_back(ctx.factory());
    if (i > 0) nets_[i]->copy_params_from(*nets_[0]);
    inputs_.push_back(
        Input{BatchSampler(*ctx.train, ctx.config.batch_size, first_seed + i),
              Tensor(), {}});
  }
  threads_ = std::min<std::size_t>(
      count, std::max(1u, std::thread::hardware_concurrency()));
}

void ReplicaSet::compute_gradient(std::size_t j) {
  Input& in = inputs_[j];
  in.sampler.next(in.batch, in.labels);
  nets_[j]->zero_grads();
  nets_[j]->forward_backward(in.batch, in.labels);
}

void ReplicaSet::compute_gradients() {
  // The first round grows every replica's buffers (activations, kernel
  // scratch, batches). Grown concurrently, the allocations interleave in
  // a nondeterministic order and fragment the heap, so it runs serially.
  if (calls_++ == 0 || threads_ == 1) {
    for (std::size_t j = 0; j < size(); ++j) compute_gradient(j);
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
    compute_gradient(j);
  });
}

}  // namespace ds
