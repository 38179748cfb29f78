// Worker replicas of the modeled runners (Original/Sync EASGD, Sync SGD,
// cluster Sync EASGD, KNL partitions): one network, one batch sampler and
// one batch buffer per simulated device, all starting from the same weights
// ("copy W to W_j", Algorithm 1). Private to src/core.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/context.hpp"
#include "data/sampler.hpp"
#include "support/thread_pool.hpp"

namespace ds {

class ReplicaSet {
 public:
  /// Replica i's batch sampler is seeded `first_seed + i`.
  ReplicaSet(const AlgoContext& ctx, std::size_t count,
             std::uint64_t first_seed);

  std::size_t size() const { return nets_.size(); }
  Network& net(std::size_t j) { return *nets_[j]; }
  const std::vector<std::unique_ptr<Network>>& nets() const { return nets_; }

  /// Step (1) of a synchronous round: every replica samples its batch,
  /// zeroes its gradients and runs forward+backward. The first call runs
  /// the replicas one after another on the calling thread; later calls run
  /// them concurrently on a pool of min(replicas, hardware threads) threads
  /// (DESIGN.md §7). Replicas share no state, so either way every replica
  /// ends bitwise where the serial loop leaves it. A task's exception is
  /// rethrown here once every replica has finished.
  void compute_gradients();

  /// The same step for replica j alone, on the calling thread.
  void compute_gradient(std::size_t j);

 private:
  struct Input {
    BatchSampler sampler;
    Tensor batch;
    std::vector<std::int32_t> labels;
  };

  std::vector<std::unique_ptr<Network>> nets_;
  std::vector<Input> inputs_;
  std::size_t threads_;
  std::size_t calls_ = 0;
  std::unique_ptr<ThreadPool> pool_;  // built on the first concurrent call
};

}  // namespace ds
