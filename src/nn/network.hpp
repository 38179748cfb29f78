// Sequential network container: owns layers + the ParamArena, runs
// forward/backward over mini-batches, and exposes the packed parameter view
// that the distributed algorithms communicate.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "nn/loss.hpp"
#include "nn/param_arena.hpp"
#include "support/rng.hpp"
#include "tensor/tensor.hpp"

namespace ds {

class Network {
 public:
  /// input_shape excludes the batch dimension, e.g. {1, 28, 28}.
  explicit Network(Shape input_shape, PackMode pack_mode = PackMode::kPacked);

  /// Append a layer; returns *this for chaining in model-zoo builders.
  Network& add(LayerPtr layer);

  /// Allocate the arena, bind every layer, and Xavier-initialise. Must be
  /// called exactly once, after the last add().
  void finalize(Rng& rng);
  bool finalized() const { return finalized_; }

  // -------------------------------------------------------------------
  // Training / inference.
  // -------------------------------------------------------------------

  /// Forward pass; returns the logits (reference valid until next call).
  const Tensor& forward(const Tensor& batch, bool train);

  /// Batched forward-only inference — the serving front-end's hot path.
  /// Eval-mode forward (dropout off, no gradient side effects) with the
  /// batch geometry validated against the network's input shape, which
  /// plain forward() skips for speed. Coalescing B requests into one call
  /// here is bitwise-identical to B batch-1 calls for every deterministic
  /// ConvAlgo (pinned by tests/serve_parity_test.cpp).
  const Tensor& infer(const Tensor& batch);

  /// Combined forward + loss + full backward. Gradients are ACCUMULATED
  /// into the arena — call zero_grads() first for a fresh gradient.
  LossResult forward_backward(const Tensor& batch,
                              std::span<const std::int32_t> labels);

  /// Called as backward RETIRES layer `i` — its gradient is final in the
  /// arena while layers < i are still being back-propagated. This is the
  /// attachment point of the bucketed exchange pipeline (DESIGN.md §10):
  /// the hook may launch communication for the retired slice, but must not
  /// touch layers that have not retired yet.
  using LayerReadyHook = std::function<void(std::size_t layer)>;

  /// forward_backward with a per-layer retire hook; hook may be empty.
  LossResult forward_backward(const Tensor& batch,
                              std::span<const std::int32_t> labels,
                              const LayerReadyHook& on_layer_retired);

  /// Loss/accuracy on a batch without touching gradients.
  LossResult evaluate_batch(const Tensor& batch,
                            std::span<const std::int32_t> labels);

  // -------------------------------------------------------------------
  // Parameters.
  // -------------------------------------------------------------------

  ParamArena& arena() { return arena_; }
  const ParamArena& arena() const { return arena_; }
  std::size_t param_count() const { return arena_.total_params(); }
  std::size_t param_bytes() const { return param_count() * sizeof(float); }
  void zero_grads() { arena_.zero_grads(); }

  /// Per-layer parameter sizes of the learnable layers (non-empty entries
  /// only) — what a per-layer communication schedule sends as separate
  /// messages (Figure 10 baseline).
  std::vector<std::size_t> comm_chunk_sizes() const;

  /// Copy all weights from another network of identical architecture.
  void copy_params_from(const Network& other) {
    arena_.copy_params_from(other.arena());
  }

  // -------------------------------------------------------------------
  // Introspection.
  // -------------------------------------------------------------------

  const Shape& input_shape() const { return input_shape_; }
  /// Logit columns: the width of the last layer's output.
  std::size_t classes() const { return classes_; }
  std::size_t layer_count() const { return layers_.size(); }
  const Layer& layer(std::size_t i) const { return *layers_[i]; }

  /// Estimated forward+backward flops for one training sample.
  double flops_per_sample() const { return flops_per_sample_; }

  /// Per-layer flops behind flops_per_sample() — the weights a bucketed
  /// schedule uses to apportion the backward pass across layer retires.
  const std::vector<double>& layer_flops() const { return layer_flops_; }

  /// Heap bytes the network holds now, by class (nn/layer.hpp). Buffers
  /// grow on first use, so this reads what the calls so far have grown.
  Footprint footprint() const;

  /// Multi-line architecture summary.
  std::string summary() const;

 private:
  Shape batched(const Shape& sample_shape, std::size_t batch) const;

  Shape input_shape_;
  PackMode pack_mode_;
  std::vector<LayerPtr> layers_;
  ParamArena arena_;
  SoftmaxCrossEntropy loss_;
  bool finalized_ = false;
  std::size_t classes_ = 0;
  double flops_per_sample_ = 0.0;
  std::vector<double> layer_flops_;

  // Activations reused across iterations: one per layer in training, two
  // alternating in inference.
  std::vector<Tensor> acts_;
  // Input gradients, alternating: layer i reads its dy from
  // grads_cache_[(i + 1) % 2] and writes its dx into grads_cache_[i % 2];
  // the loss writes dL/dlogits into grads_cache_[layers % 2].
  Tensor grads_cache_[2];

  // Interned per-layer span names ("fwd conv3x3", "bwd conv3x3"), built
  // lazily the first time a traced pass runs so untraced runs never pay the
  // interning cost. Trace events store raw pointers, hence interning.
  mutable std::vector<const char*> fwd_trace_names_;
  mutable std::vector<const char*> bwd_trace_names_;
  const char* fwd_trace_name(std::size_t i) const;
  const char* bwd_trace_name(std::size_t i) const;
};

/// Builds a fresh network of some fixed architecture. Distributed workers
/// call the factory once each so every device owns an independent replica.
using NetworkFactory = std::function<std::unique_ptr<Network>()>;

}  // namespace ds
