// Worker replicas of the modeled runners (Original/Sync EASGD, Sync SGD,
// cluster Sync EASGD, KNL partitions): one network, one batch sampler and
// one batch buffer per simulated device, all starting from the same weights
// ("copy W to W_j", Algorithm 1). Between gradient steps the replicas are
// idle, so they also run the run's test probes. Private to src/core.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/context.hpp"
#include "core/run_result.hpp"
#include "data/sampler.hpp"
#include "support/thread_pool.hpp"

namespace ds {

class ReplicaSet {
 public:
  /// Replica i's batch sampler is seeded `first_seed + i`. Probes read the
  /// first min(eval_samples, test size) samples of ctx.test.
  ReplicaSet(const AlgoContext& ctx, std::size_t count,
             std::uint64_t first_seed);

  std::size_t size() const { return nets_.size(); }
  Network& net(std::size_t j) { return *nets_[j]; }
  const std::vector<std::unique_ptr<Network>>& nets() const { return nets_; }

  /// Step (1) of a synchronous round: every replica samples its batch,
  /// zeroes its gradients and runs forward+backward. Until every replica
  /// has taken a step, the replicas run one after another on the calling
  /// thread; after that, concurrently on a pool of min(replicas, hardware
  /// threads) threads (DESIGN.md §7). Replicas share no state, so either
  /// way every replica ends bitwise where the serial loop leaves it. A
  /// task's exception is rethrown here once every replica has finished.
  void compute_gradients();

  /// The same step for replica j alone, on the calling thread.
  void compute_gradient(std::size_t j);

  /// Test loss/accuracy of `weights` (packed), or of replica 0's own
  /// weights when `weights` is empty. Each replica stashes its weights,
  /// loads the probed ones, infers its contiguous share of the test rows in
  /// sub-batches of at most batch_size, and restores its weights bit for
  /// bit; the logits are then reduced here by reduce_logits. The replicas
  /// run serially or on the pool by the rule of compute_gradients, and
  /// batched inference is bitwise equal to smaller batches, so the point
  /// equals an Evaluator's bit for bit.
  TracePoint probe(std::span<const float> weights);

 private:
  struct Input {
    explicit Input(BatchSampler s) : sampler(std::move(s)) {}

    BatchSampler sampler;
    Tensor batch;
    std::vector<std::int32_t> labels;
    std::vector<std::size_t> rows;  // the test rows of a probe sub-batch
    std::vector<float> stash;       // own weights while probing others
    bool stepped = false;           // took a gradient step: buffers grown
  };

  /// Runs task(j) for every replica, serially or on the pool.
  void for_each(const std::function<void(std::size_t)>& task);
  /// Replica j's part of probe().
  void probe_share(std::size_t j, std::span<const float> weights);

  std::vector<std::unique_ptr<Network>> nets_;
  std::vector<Input> inputs_;
  std::size_t batch_size_;
  const Dataset& test_;
  std::size_t probe_rows_;
  Tensor logits_;  // probe_rows_ × classes
  std::size_t threads_;
  std::unique_ptr<ThreadPool> pool_;  // built on the first concurrent call
};

}  // namespace ds
