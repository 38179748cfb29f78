// The stage sequence behind the composite blocks (ResidualBlock,
// InceptionBlock) and the base class that holds their sequences.
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace ds {

/// An ordered list of layers run back to back inside one block, and the
/// outputs of their last training forward. Parameters are sliced in list
/// order. Inference and backward run through two tensors the caller hands
/// in, so outside training a sequence keeps no tensors of its own.
class Stages {
 public:
  /// Stages{} is the empty sequence (an identity shortcut).
  template <class... L>
  explicit Stages(std::unique_ptr<L>... layers) : acts_(sizeof...(L)) {
    (layers_.push_back(std::move(layers)), ...);
  }

  bool empty() const { return layers_.empty(); }
  std::size_t param_count() const;
  /// Binds each layer its slice, in list order; returns the elements used.
  std::size_t bind(std::span<float> params, std::span<float> grads);
  void bind_scratch(LayerScratch& scratch);
  void init_params(Rng& rng);
  Shape output_shape(const Shape& input) const;
  /// `total` plus each stage's flops_per_sample, added in list order.
  double flops_per_sample(const Shape& input, double total) const;
  void footprint(Footprint& f) const;

  /// The last stage's output: with `train` each stage keeps its own,
  /// otherwise they alternate between `a` and `b`, starting with `a`. An
  /// empty sequence returns x.
  const Tensor& forward(const Tensor& x, bool train, Tensor& a, Tensor& b);
  /// dL/dx after a training forward on x. The stages' input gradients
  /// alternate between `a` and `b`, never written into the one holding dy.
  /// An empty sequence returns dy.
  const Tensor& backward(const Tensor& x, const Tensor& dy, Tensor& a,
                         Tensor& b);
  /// The last training forward's output (non-empty sequences only).
  const Tensor& output() const { return acts_.back(); }

 private:
  std::vector<LayerPtr> layers_;
  std::vector<Tensor> acts_;  // each stage's training output
};

/// A layer made of stage sequences: binds, scratch-binds, initialises and
/// counts them in order (checkpoints and the init RNG rely on it).
class CompositeLayer : public Layer {
 public:
  std::size_t param_count() const override;
  void bind(std::span<float> params, std::span<float> grads) override;
  void bind_scratch(LayerScratch& scratch) override;
  void init_params(Rng& rng) override;
  /// The stages' flops, one running total in sequence order.
  double flops_per_sample(const Shape& input) const override;
  void footprint(Footprint& f) const override;

 protected:
  std::vector<Stages> stages_;
};

}  // namespace ds
