// Mini-batch sampling and dataset partitioning across workers.
//
// The paper's algorithms differ in where data lives: GPU workers fetch
// random batches from host memory (Algorithms 1–3) while each KNL node holds
// a full local copy (Algorithm 4, weak scaling). shard()/replicate() model
// both regimes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "support/rng.hpp"
#include "tensor/tensor.hpp"

namespace ds {

/// Draws uniform random mini-batches ("randomly picks b samples",
/// Algorithm 1 line 8). Deterministic given its seed.
class BatchSampler {
 public:
  BatchSampler(const Dataset& dataset, std::size_t batch_size,
               std::uint64_t seed);

  /// Fill `images` (B×C×H×W, allocated on first use) and `labels` with a
  /// fresh random batch.
  void next(Tensor& images, std::vector<std::int32_t>& labels);

  std::size_t batch_size() const { return batch_size_; }

 private:
  const Dataset& dataset_;
  std::size_t batch_size_;
  Rng rng_;
};

/// Copy the images at `indices` into a batch tensor (grow-only resize).
void gather_images(const Dataset& dataset,
                   std::span<const std::size_t> indices, Tensor& images);

/// gather_images plus the samples' labels.
void gather_batch(const Dataset& dataset,
                  const std::vector<std::size_t>& indices, Tensor& images,
                  std::vector<std::int32_t>& labels);

/// Split a dataset into `parts` disjoint contiguous shards (data
/// parallelism: each worker sees 1/P of the data).
std::vector<Dataset> shard(const Dataset& dataset, std::size_t parts);

/// `parts` full copies (weak scaling: "each node processes one copy of the
/// dataset", §7.1).
std::vector<Dataset> replicate(const Dataset& dataset, std::size_t parts);

}  // namespace ds
