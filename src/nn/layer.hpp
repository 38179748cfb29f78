// Layer interface for the from-scratch CNN framework.
//
// Layers do not own their parameters: a Network allocates one ParamArena
// (packed, or per-layer for the Figure-10 ablation) and binds each layer a
// weight span and a gradient span. backward() accumulates into the bound
// gradient span; callers zero gradients between iterations.
//
// forward(), backward() and backward_params() are non-virtual: they keep
// the forward/backward contract for every layer in one place (shape memo,
// output and input-gradient sizing, the training-forward and shape checks)
// and call the layer's private kernels, as Caffe's Layer::Forward/Backward
// wrap Forward_cpu/Backward_cpu.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "support/rng.hpp"
#include "tensor/tensor.hpp"

namespace ds {

class AlignedBuffer;

class Layer {
 public:
  virtual ~Layer() = default;

  /// Human-readable layer name, e.g. "conv 3->8 k5 s1 p2".
  virtual std::string name() const = 0;

  /// Shape of the output given an input shape (batch dim included). Throws
  /// ds::Error for an input the layer cannot take.
  virtual Shape output_shape(const Shape& input) const = 0;

  /// Number of learnable parameters (weights + biases).
  virtual std::size_t param_count() const { return 0; }

  /// Attach parameter and gradient storage. Called once by the Network.
  virtual void bind(std::span<float> params, std::span<float> grads) {
    DS_CHECK(params.size() == param_count() && grads.size() == param_count(),
             name() << ": bind size " << params.size() << " != "
                    << param_count());
    params_ = params;
    grads_ = grads;
  }

  /// Attach an arena-owned, grow-only kernel scratch buffer (blocked
  /// activation layouts, rotated weights). Called by Network::finalize
  /// after bind(); layers that need scratch but were never offered any
  /// (standalone use, tests) fall back to a private buffer. Composite
  /// layers forward the same buffer to their inner layers — each conv call
  /// partitions it afresh, so sharing is safe as long as no single
  /// forward()/backward() call is re-entered.
  virtual void bind_scratch(AlignedBuffer& /*scratch*/) {}

  /// Initialise bound parameters (Xavier for weights, zero for biases).
  virtual void init_params(Rng& /*rng*/) {}

  /// y = f(x). Resizes y to output_shape(x.shape()) — recomputed only when
  /// the input shape changes — and records the input shape and the mode.
  /// `train` enables stochastic behaviour (dropout) and keeps the state
  /// backward() reads; an inference forward (train == false) keeps none.
  void forward(const Tensor& x, Tensor& y, bool train);

  /// Given dL/dy, compute dL/dx (resized to x's shape) and accumulate
  /// parameter gradients. Throws ds::Error unless the last forward() ran
  /// with train == true, x has that forward's input shape and y and dy
  /// have its output shape. After one training forward, any number of
  /// backwards give the same dx and the same gradient increments.
  void backward(const Tensor& x, const Tensor& y, const Tensor& dy,
                Tensor& dx);

  /// backward() for a layer whose dL/dx nobody reads (a network's first
  /// layer): the same checks, and the parameter gradients accumulate bit
  /// for bit as backward() would. Layers whose input gradient is a
  /// separate pass skip it; the others run it into `scratch`.
  void backward_params(const Tensor& x, const Tensor& y, const Tensor& dy,
                       Tensor& scratch);

  /// Estimated flops for forward+backward of ONE sample with this input
  /// shape (spatial dims only; batch dim of `input` is ignored). Drives the
  /// virtual-time compute model.
  virtual double flops_per_sample(const Shape& input) const = 0;

 protected:
  /// Elements in one sample of `shape` (every dim but the batch).
  static double sample_numel(const Shape& shape);

  std::span<float> params_;
  std::span<float> grads_;

 private:
  /// The layer's kernels. forward_impl gets y already sized to the output
  /// shape and must overwrite it in full; it keeps backward state only
  /// when `train`. backward_impl gets inputs that passed the contract
  /// checks and dx already sized to x's shape.
  virtual void forward_impl(const Tensor& x, Tensor& y, bool train) = 0;
  virtual void backward_impl(const Tensor& x, const Tensor& y,
                             const Tensor& dy, Tensor& dx) = 0;
  /// Defaults to backward_impl into `scratch`.
  virtual void backward_params_impl(const Tensor& x, const Tensor& y,
                                    const Tensor& dy, Tensor& scratch);

  void check_backward(const Tensor& x, const Tensor& y,
                      const Tensor& dy) const;

  Shape in_shape_;        // input shape of the last forward
  Shape out_shape_;       // output_shape(in_shape_)
  bool trained_ = false;  // the last forward completed with train == true
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace ds
