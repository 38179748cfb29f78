// Layer interface for the from-scratch CNN framework.
//
// Layers do not own their parameters: a Network allocates one ParamArena
// (packed, or per-layer for the Figure-10 ablation) and binds each layer a
// weight span and a gradient span. backward() accumulates into the bound
// gradient span; callers zero gradients between iterations.
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

  /// Shape of the output given an input shape (batch dim included).
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

  /// y = f(x). `train` enables stochastic behaviour (dropout) and keeps
  /// the state backward() reads; an inference forward (train == false)
  /// keeps none of it.
  virtual void forward(const Tensor& x, Tensor& y, bool train) = 0;

  /// Given dL/dy, compute dL/dx and accumulate parameter gradients.
  /// x and y are the tensors from the matching forward() call, which must
  /// have run with train == true.
  virtual void backward(const Tensor& x, const Tensor& y, const Tensor& dy,
                        Tensor& dx) = 0;

  /// backward() for a layer whose dL/dx nobody reads (a network's first
  /// layer): only the parameter gradients must be accumulated, bit for bit
  /// as backward() would. The default runs backward() into `scratch`;
  /// layers whose input gradient is a separate pass skip that pass.
  virtual void backward_params(const Tensor& x, const Tensor& y,
                               const Tensor& dy, Tensor& scratch) {
    backward(x, y, dy, scratch);
  }

  /// Estimated flops for forward+backward of ONE sample with this input
  /// shape (spatial dims only; batch dim of `input` is ignored). Drives the
  /// virtual-time compute model.
  virtual double flops_per_sample(const Shape& input) const = 0;

 protected:
  std::span<float> params_;
  std::span<float> grads_;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace ds
