// Test-set evaluation of candidate weights. Every probe reads the first
// min(eval_samples, test.size()) test samples and reduces their logits
// through reduce_logits, so a trace point is the same bits whoever computed
// the logits. The training runners infer them on their own idle networks
// (probe_on_lanes, core/replica_set.hpp, DESIGN.md §7). Evaluator, which
// owns one scratch network and infers serially, is the tests' oracle and
// perfbench's API. Evaluation happens outside the virtual-time ledger —
// the paper's timings measure training, with accuracy probed by separate
// test passes.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/run_result.hpp"
#include "data/dataset.hpp"
#include "nn/network.hpp"

namespace ds {

/// Test loss and accuracy from the logits (rows × classes) of test rows
/// [0, rows) and their labels: softmax cross-entropy over fixed 64-row
/// chunks, each chunk's mean loss weighted by its row count.
TracePoint reduce_logits(const Tensor& logits,
                         std::span<const std::int32_t> labels);

class Evaluator {
 public:
  /// Evaluates on the first min(eval_samples, test.size()) test samples in
  /// fixed chunks so trace points are comparable across methods.
  Evaluator(const NetworkFactory& factory, const Dataset& test,
            std::size_t eval_samples);

  /// Loss/accuracy of the weights held in `arena`.
  TracePoint evaluate(const ParamArena& arena);

  /// Loss/accuracy of packed weights (must match the scratch net's size).
  TracePoint evaluate_packed(std::span<const float> weights);

  std::size_t sample_count() const { return rows_; }

 private:
  TracePoint run_eval();

  std::unique_ptr<Network> net_;
  const Dataset& test_;
  std::size_t rows_;
  std::vector<std::size_t> chunk_;
  Tensor batch_;
  std::vector<std::int32_t> labels_;
  Tensor logits_;
};

}  // namespace ds
