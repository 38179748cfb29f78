// The one path for forwards outside the timed training, serving answers
// and test probes alike (DESIGN.md §7 "Forwards on lanes").
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "data/dataset.hpp"
#include "nn/network.hpp"
#include "support/thread_pool.hpp"

namespace ds {

/// min(n, hardware threads), at least 1.
std::size_t worker_threads(std::size_t n);

/// task(0) … task(n-1): serially on the calling thread when `pool` is
/// null, else on the pool, each task with the caller's kernel_config() but
/// gemm_threads = 1 (one task per core already fills the machine) and
/// tracing on the caller's rank. A task's exception is rethrown here once
/// every task has finished.
void worker_parallel_for(ThreadPool* pool, std::size_t n,
                         const std::function<void(std::size_t)>& task);

/// Dataset `rows` inferred with packed `weights` (ParamArena::save_params).
struct ForwardJob {
  std::span<const float> weights;
  std::span<const std::size_t> rows;
};

/// Runs `jobs` on min(lanes, jobs) lanes, idle networks, through
/// worker_parallel_for. A lane takes jobs from one atomic cursor, loads a
/// job's weights only when they differ from the ones it loaded last, and
/// hands the logits (rows × classes) to sink(job, logits). Batched
/// inference equals smaller batches bit for bit, so no logit depends on
/// the lane. Overwrites the lanes' weights.
void run_forwards(
    ThreadPool* pool, std::span<const std::unique_ptr<Network>> lanes,
    const Dataset& data, std::span<const ForwardJob> jobs,
    const std::function<void(std::size_t job, const Tensor& logits)>& sink);

}  // namespace ds
