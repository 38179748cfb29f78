// Worker replicas of the modeled runners (Original/Sync EASGD, Sync SGD,
// cluster Sync EASGD, KNL partitions): one network, one batch sampler and
// one batch buffer per simulated device, all starting from the same weights
// ("copy W to W_j", Algorithm 1). Between gradient steps the replicas are
// idle, so they also run the run's test probes, through probe_on_lanes,
// which the fabric and async runners use on their own networks too.
// Private to src/core.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/context.hpp"
#include "core/run_result.hpp"
#include "data/sampler.hpp"
#include "support/thread_pool.hpp"

namespace ds {

/// Packed center weights to probe, taken at `iteration` and virtual time
/// `vtime`.
struct Snapshot {
  std::size_t iteration = 0;
  double vtime = 0.0;
  std::vector<float> weights;
};

/// The trace point of each snapshot, on the first min(eval_samples, test
/// size) test rows: chunks of batch_size rows run_forwards on `lanes`, with
/// `inputs` one input tensor per lane (nn/forward_lanes.hpp), and each
/// snapshot's logits reduced by reduce_logits. Batched inference equals
/// smaller batches bit for bit, so a point equals a serial probe's of the
/// same rows (core/evaluator.hpp). Overwrites the lanes' weights and inputs.
std::vector<TracePoint> probe_on_lanes(
    ThreadPool& pool, std::span<const std::unique_ptr<Network>> lanes,
    std::span<Tensor> inputs, const AlgoContext& ctx,
    std::span<const Snapshot> snapshots);

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
  /// zeroes its gradients and runs forward+backward, concurrently on
  /// min(replicas, hardware_lanes()) lanes, the calling thread among them,
  /// from the first round on (DESIGN.md §7). Replicas share no state, so
  /// every replica ends bitwise where the serial loop leaves it. A task's
  /// exception is rethrown here once every replica has finished.
  void compute_gradients();

  /// The same step for replica j alone, on the calling thread.
  void compute_gradient(std::size_t j);

  /// The trace point of `snapshot`, or of replica 0's own weights when its
  /// weights are empty, probed on the replicas by probe_on_lanes on the
  /// compute_gradients lanes, each replica's training batch its lane input.
  /// Each replica stashes its own weights first and gets them back bit for
  /// bit; the next step samples a fresh batch anyway.
  TracePoint probe(Snapshot snapshot);

 private:
  struct Input {
    explicit Input(BatchSampler s) : sampler(std::move(s)) {}

    BatchSampler sampler;
    std::vector<std::int32_t> labels;
    std::vector<float> stash;  // own weights while probing others
  };

  const AlgoContext& ctx_;
  std::vector<std::unique_ptr<Network>> nets_;
  std::vector<Input> inputs_;
  std::vector<Tensor> batches_;  // replica j's training batch
  // min(replicas, hardware_lanes()) lanes: the caller and lanes − 1 pool
  // threads, so one lane starts none and runs the replicas in order.
  ThreadPool pool_;
};

}  // namespace ds
