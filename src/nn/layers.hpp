// Concrete layer types. Enough to express LeNet, (scaled) AlexNet, VGG, and
// GoogLeNet-style inception blocks — the four model families the paper
// evaluates (§4.2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/layer.hpp"
#include "nn/stages.hpp"
#include "support/aligned_buffer.hpp"
#include "tensor/conv_algo.hpp"
#include "tensor/im2col.hpp"

namespace ds {

// ---------------------------------------------------------------------------
// Activations (parameter-free, shape-preserving).
// ---------------------------------------------------------------------------

class ReLU final : public Layer {
 public:
  std::string name() const override { return "relu"; }
  Shape output_shape(const Shape& input) const override { return input; }
  double flops_per_sample(const Shape& input) const override;

 private:
  void forward_impl(const Tensor& x, Tensor& y, bool train) override;
  void backward_impl(const Tensor& x, const Tensor& y, const Tensor& dy,
                     Tensor& dx) override;
};

class Tanh final : public Layer {
 public:
  std::string name() const override { return "tanh"; }
  Shape output_shape(const Shape& input) const override { return input; }
  double flops_per_sample(const Shape& input) const override;

 private:
  void forward_impl(const Tensor& x, Tensor& y, bool train) override;
  void backward_impl(const Tensor& x, const Tensor& y, const Tensor& dy,
                     Tensor& dx) override;
};

class Sigmoid final : public Layer {
 public:
  std::string name() const override { return "sigmoid"; }
  Shape output_shape(const Shape& input) const override { return input; }
  double flops_per_sample(const Shape& input) const override;

 private:
  void forward_impl(const Tensor& x, Tensor& y, bool train) override;
  void backward_impl(const Tensor& x, const Tensor& y, const Tensor& dy,
                     Tensor& dx) override;
};

// ---------------------------------------------------------------------------
// Shape plumbing.
// ---------------------------------------------------------------------------

/// N×C×H×W -> N×(C·H·W).
class Flatten final : public Layer {
 public:
  std::string name() const override { return "flatten"; }
  Shape output_shape(const Shape& input) const override;
  double flops_per_sample(const Shape& input) const override { (void)input; return 0.0; }

 private:
  void forward_impl(const Tensor& x, Tensor& y, bool train) override;
  void backward_impl(const Tensor& x, const Tensor& y, const Tensor& dy,
                     Tensor& dx) override;
};

/// Inverted dropout: train-time masks scale by 1/(1-p); eval is identity.
class Dropout final : public Layer {
 public:
  explicit Dropout(double drop_prob, std::uint64_t seed = 0x0D120u);
  std::string name() const override;
  Shape output_shape(const Shape& input) const override { return input; }
  double flops_per_sample(const Shape& input) const override;
  void footprint(Footprint& f) const override {
    f.backward_state += Footprint::bytes(mask_);
  }

 private:
  void forward_impl(const Tensor& x, Tensor& y, bool train) override;
  void backward_impl(const Tensor& x, const Tensor& y, const Tensor& dy,
                     Tensor& dx) override;

  double drop_prob_;
  Rng rng_;
  std::vector<float> mask_;
};

// ---------------------------------------------------------------------------
// Learnable layers.
// ---------------------------------------------------------------------------

/// 2-D convolution. Parameters are [out_c × in_c × k × k] filter weights
/// followed by [out_c] biases. Each forward/backward dispatches over one of
/// the ConvAlgo kernels (tensor/conv_algo.hpp): im2col+GEMM lowering or
/// register-blocked direct 3×3 — resolved per call through
/// kernel_config().conv_algo → shape heuristic, with im2col the universal
/// fallback. Both paths are bitwise-deterministic under gemm_threads > 1.
class Conv2D final : public Layer {
 public:
  Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t stride = 1, std::size_t pad = 0);

  std::string name() const override;
  Shape output_shape(const Shape& input) const override;
  std::size_t param_count() const override;
  void init_params(Rng& rng) override;
  double flops_per_sample(const Shape& input) const override;
  void footprint(Footprint& f) const override {
    f.backward_state += Footprint::bytes(col_ws_);
  }

  std::size_t in_channels() const { return in_c_; }
  std::size_t out_channels() const { return out_c_; }

  /// The kernel a call with this input shape would run, after the full
  /// kAuto resolution chain (benches/tests label themselves with it).
  ConvAlgo resolved_algo(const Shape& input) const;

 private:
  void forward_impl(const Tensor& x, Tensor& y, bool train) override;
  void backward_impl(const Tensor& x, const Tensor& y, const Tensor& dy,
                     Tensor& dx) override;
  void backward_params_impl(const Tensor& x, const Tensor& y,
                            const Tensor& dy, Tensor& scratch) override;

  ConvGeom geom_for(const Shape& input) const;

  void forward_lowered(const ConvGeom& g, const Tensor& x, Tensor& y);
  void forward_images(const ConvGeom& g, ConvAlgo algo, const Tensor& x,
                      Tensor& y);
  void forward_direct(const ConvGeom& g, const Tensor& x, Tensor& y);
  // dx == nullptr skips the input gradient (backward_params).
  void backward_into(const Tensor& x, const Tensor& dy, Tensor* dx);
  void backward_direct(const ConvGeom& g, const Tensor& x, const Tensor& dy,
                       Tensor* dx);
  void backward_lowered(const ConvGeom& g, const Tensor& x, const Tensor& dy,
                        Tensor* dx);

  std::size_t in_c_;
  std::size_t out_c_;
  std::size_t kernel_;
  std::size_t stride_;
  std::size_t pad_;
  // The training forward's batched im2col column matrix [rows × batch·cols]
  // (grow-only), which backward reuses for the dW GEMM when col_valid_.
  // Every other workspace (GEMM output, re-batched dY, column gradient,
  // blocked layouts, rotated weights, an inference image's columns) comes
  // from the network's scratch, partitioned per call.
  AlignedBuffer col_ws_;
  // col_ws_ holds the lowering of the last forward's input — lets backward
  // skip re-running im2col (its x is that forward's x). Cleared whenever a
  // forward runs a non-lowering kernel.
  bool col_valid_ = false;
};

/// Max pooling over k×k windows; optional zero-area padding (padded taps are
/// ignored, as in cuDNN's NOT_PROPAGATE_NAN max pooling over -inf pads).
class MaxPool2D final : public Layer {
 public:
  MaxPool2D(std::size_t kernel, std::size_t stride, std::size_t pad = 0);
  std::string name() const override;
  Shape output_shape(const Shape& input) const override;
  double flops_per_sample(const Shape& input) const override;
  void footprint(Footprint& f) const override {
    f.backward_state += Footprint::bytes(argmax_);
  }

 private:
  void forward_impl(const Tensor& x, Tensor& y, bool train) override;
  void backward_impl(const Tensor& x, const Tensor& y, const Tensor& dy,
                     Tensor& dx) override;

  std::size_t kernel_;
  std::size_t stride_;
  std::size_t pad_;
  std::vector<std::uint32_t> argmax_;  // in-plane input index per output
};

/// Average pooling over k×k windows.
class AvgPool2D final : public Layer {
 public:
  AvgPool2D(std::size_t kernel, std::size_t stride);
  std::string name() const override;
  Shape output_shape(const Shape& input) const override;
  double flops_per_sample(const Shape& input) const override;

 private:
  void forward_impl(const Tensor& x, Tensor& y, bool train) override;
  void backward_impl(const Tensor& x, const Tensor& y, const Tensor& dy,
                     Tensor& dx) override;

  std::size_t kernel_;
  std::size_t stride_;
};

/// AlexNet-style local response normalisation across channels:
///   y[c] = x[c] / (k + α/n · Σ_{c'∈window(c)} x[c']²)^β
/// with a window of `size` channels centred on c.
class LocalResponseNorm final : public Layer {
 public:
  explicit LocalResponseNorm(std::size_t size = 5, double alpha = 1e-4,
                             double beta = 0.75, double k = 2.0);
  std::string name() const override;
  Shape output_shape(const Shape& input) const override;
  double flops_per_sample(const Shape& input) const override;
  void footprint(Footprint& f) const override {
    f.params += Footprint::bytes(memo_);
    f.backward_state += Footprint::bytes(scale_);
  }

 private:
  void forward_impl(const Tensor& x, Tensor& y, bool train) override;
  void backward_impl(const Tensor& x, const Tensor& y, const Tensor& dy,
                     Tensor& dx) override;

  // One slot of the powf memo: `value` is always powf(bit_cast(key), −β).
  struct PowSlot {
    std::uint32_t key;
    float value;
  };
  static constexpr std::size_t kPowMemoSlots = std::size_t{1} << 13;  // 64 KiB

  std::size_t size_;
  double alpha_;
  double beta_;
  double k_;
  std::vector<float> scale_;  // s^{−β} per element, from a training forward
  std::vector<PowSlot> memo_;  // direct-mapped on the low bits of s
};

/// Dense layer: y = x·Wᵀ + b. Parameters are [out × in] weights then [out]
/// biases. Input rank 2 (N×in).
class FullyConnected final : public Layer {
 public:
  FullyConnected(std::size_t in_features, std::size_t out_features);
  std::string name() const override;
  Shape output_shape(const Shape& input) const override;
  std::size_t param_count() const override;
  void init_params(Rng& rng) override;
  double flops_per_sample(const Shape& input) const override;

 private:
  void forward_impl(const Tensor& x, Tensor& y, bool train) override;
  void backward_impl(const Tensor& x, const Tensor& y, const Tensor& dy,
                     Tensor& dx) override;
  void backward_params_impl(const Tensor& x, const Tensor& y,
                            const Tensor& dy, Tensor& scratch) override;

  std::size_t in_;
  std::size_t out_;
};

/// ResNet-style residual block: y = ReLU(F(x) + shortcut(x)) where F is
/// conv3×3 → ReLU → conv3×3 and the shortcut is identity (same channels,
/// stride 1) or a 1×1 projection conv (channel/stride change). The paper's
/// introduction names 152-layer ResNets as the workloads driving the need
/// for scalable training.
class ResidualBlock final : public CompositeLayer {
 public:
  ResidualBlock(std::size_t in_channels, std::size_t out_channels,
                std::size_t stride = 1);

  std::string name() const override;
  Shape output_shape(const Shape& input) const override;
  double flops_per_sample(const Shape& input) const override;

 private:
  void forward_impl(const Tensor& x, Tensor& y, bool train) override;
  void backward_impl(const Tensor& x, const Tensor& y, const Tensor& dy,
                     Tensor& dx) override;

  std::size_t in_c_, out_c_, stride_;
  // stages_: {conv1, ReLU, conv2}, then the shortcut ({} or {projection}).
};

/// GoogLeNet-style inception block: four parallel branches
/// (1×1 | 1×1→3×3 | 1×1→5×5 | 3×3 maxpool→1×1) concatenated along channels.
/// Implemented as a composite layer so Network stays a sequential container.
class InceptionBlock final : public CompositeLayer {
 public:
  InceptionBlock(std::size_t in_channels, std::size_t c1x1,
                 std::size_t c3x3_reduce, std::size_t c3x3,
                 std::size_t c5x5_reduce, std::size_t c5x5,
                 std::size_t pool_proj);

  std::string name() const override;
  Shape output_shape(const Shape& input) const override;
  std::size_t out_channels() const { return out_c_; }

 private:
  void forward_impl(const Tensor& x, Tensor& y, bool train) override;
  void backward_impl(const Tensor& x, const Tensor& y, const Tensor& dy,
                     Tensor& dx) override;

  std::size_t in_c_, out_c_;
  // stages_: the four branches, in the order above.
};

}  // namespace ds
