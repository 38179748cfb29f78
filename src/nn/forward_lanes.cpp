#include "nn/forward_lanes.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "data/sampler.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "tensor/gemm.hpp"

namespace ds {

std::size_t worker_threads(std::size_t n) {
  return std::max<std::size_t>(1, std::min(n, hardware_lanes()));
}

void worker_parallel_for(ThreadPool& pool, std::size_t n,
                         const std::function<void(std::size_t)>& task) {
  KernelConfig worker_config = kernel_config();
  if (pool.size() > 1) worker_config.gemm_threads = 1;
  const std::int64_t rank = obs::thread_rank();
  pool.parallel_for(n, [&](std::size_t i) {
    // The caller is a lane too: put its config back after each task.
    const KernelConfig saved = std::exchange(kernel_config(), worker_config);
    const obs::RankScope obs_rank(rank);
    try {
      task(i);
    } catch (...) {
      kernel_config() = saved;
      throw;
    }
    kernel_config() = saved;
  });
}

void run_forwards(
    ThreadPool& pool, std::span<const std::unique_ptr<Network>> lanes,
    std::span<Tensor> inputs, const Dataset& data,
    std::span<const ForwardJob> jobs,
    const std::function<void(std::size_t job, const Tensor& logits)>& sink) {
  const std::size_t used = std::min(lanes.size(), jobs.size());
  DS_CHECK(inputs.size() >= used,
           inputs.size() << " lane inputs for " << used << " lanes");
  std::atomic<std::size_t> cursor{0};
  worker_parallel_for(pool, used, [&](std::size_t l) {
    Network& net = *lanes[l];
    const float* loaded = nullptr;
    for (std::size_t i = cursor++; i < jobs.size(); i = cursor++) {
      const ForwardJob& job = jobs[i];
      if (job.weights.data() != loaded) {
        net.arena().load_params(job.weights);
        loaded = job.weights.data();
      }
      gather_images(data, job.rows, inputs[l]);
      sink(i, net.infer(inputs[l]));
    }
  });
}

}  // namespace ds
