#include "nn/forward_lanes.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "data/sampler.hpp"
#include "obs/trace.hpp"
#include "tensor/gemm.hpp"

namespace ds {

std::size_t worker_threads(std::size_t n) {
  return std::max<std::size_t>(
      1, std::min<std::size_t>(n, std::thread::hardware_concurrency()));
}

void worker_parallel_for(ThreadPool* pool, std::size_t n,
                         const std::function<void(std::size_t)>& task) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) task(i);
    return;
  }
  KernelConfig worker_config = kernel_config();
  worker_config.gemm_threads = 1;
  const std::int64_t rank = obs::thread_rank();
  pool->parallel_for(n, [&](std::size_t i) {
    kernel_config() = worker_config;
    const obs::RankScope obs_rank(rank);
    task(i);
  });
}

void run_forwards(
    ThreadPool* pool, std::span<const std::unique_ptr<Network>> lanes,
    const Dataset& data, std::span<const ForwardJob> jobs,
    const std::function<void(std::size_t job, const Tensor& logits)>& sink) {
  std::atomic<std::size_t> cursor{0};
  worker_parallel_for(
      pool, std::min(lanes.size(), jobs.size()), [&](std::size_t l) {
        Network& net = *lanes[l];
        Tensor input;
        const float* loaded = nullptr;
        for (std::size_t i = cursor++; i < jobs.size(); i = cursor++) {
          const ForwardJob& job = jobs[i];
          if (job.weights.data() != loaded) {
            net.arena().load_params(job.weights);
            loaded = job.weights.data();
          }
          gather_images(data, job.rows, input);
          sink(i, net.infer(input));
        }
      });
}

}  // namespace ds
