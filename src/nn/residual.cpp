#include <sstream>

#include "nn/layers.hpp"
#include "tensor/ops.hpp"

namespace ds {

ResidualBlock::ResidualBlock(std::size_t in_channels,
                             std::size_t out_channels, std::size_t stride)
    : in_c_(in_channels),
      out_c_(out_channels),
      stride_(stride),
      conv1_(in_channels, out_channels, 3, stride, 1),
      conv2_(out_channels, out_channels, 3, 1, 1) {
  if (in_c_ != out_c_ || stride_ != 1) {
    projection_ =
        std::make_unique<Conv2D>(in_channels, out_channels, 1, stride, 0);
  }
}

std::string ResidualBlock::name() const {
  std::ostringstream os;
  os << "residual " << in_c_ << "->" << out_c_ << " s" << stride_
     << (projection_ ? " (projected)" : " (identity)");
  return os.str();
}

Shape ResidualBlock::output_shape(const Shape& input) const {
  return conv1_.output_shape(input);
}

std::size_t ResidualBlock::param_count() const {
  return conv1_.param_count() + conv2_.param_count() +
         (projection_ ? projection_->param_count() : 0);
}

void ResidualBlock::bind(std::span<float> params, std::span<float> grads) {
  Layer::bind(params, grads);
  std::size_t offset = 0;
  const auto slice = [&](Layer& layer) {
    const std::size_t n = layer.param_count();
    layer.bind(params.subspan(offset, n), grads.subspan(offset, n));
    offset += n;
  };
  slice(conv1_);
  slice(conv2_);
  if (projection_) slice(*projection_);
}

void ResidualBlock::bind_scratch(LayerScratch& scratch) {
  Layer::bind_scratch(scratch);
  // The inner convs use only the kernel buffer: each call partitions it
  // afresh, and no two of them are ever mid-call at once.
  conv1_.bind_scratch(scratch);
  conv2_.bind_scratch(scratch);
  if (projection_) projection_->bind_scratch(scratch);
}

void ResidualBlock::init_params(Rng& rng) {
  conv1_.init_params(rng);
  conv2_.init_params(rng);
  if (projection_) projection_->init_params(rng);
}

void ResidualBlock::forward_impl(const Tensor& x, Tensor& y, bool train) {
  // Branch: conv1 → ReLU → conv2.
  conv1_.forward(x, act1_, train);
  relu1_.forward(act1_, act2_, train);
  conv2_.forward(act2_, act3_, train);
  // Shortcut.
  if (projection_) {
    projection_->forward(x, shortcut_, train);
  } else {
    shortcut_.resize(x.shape());
    copy(x.span(), shortcut_.span());
  }
  // y = ReLU(branch + shortcut); keep the pre-activation for backward.
  pre_relu_.resize(act3_.shape());
  add(act3_.span(), shortcut_.span(), pre_relu_.span());
  const std::size_t n = pre_relu_.numel();
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = pre_relu_[i] > 0.0f ? pre_relu_[i] : 0.0f;
  }
}

void ResidualBlock::backward_impl(const Tensor& x, const Tensor& /*y*/,
                                  const Tensor& dy, Tensor& dx) {
  // Through the output ReLU.
  Tensor* g = scratch().inner;
  Tensor& d_pre = g[0];
  d_pre.resize(dy.shape());
  const std::size_t n = dy.numel();
  for (std::size_t i = 0; i < n; ++i) {
    d_pre[i] = pre_relu_[i] > 0.0f ? dy[i] : 0.0f;
  }
  // Branch path: conv2 → ReLU → conv1, alternating g[1] and g[2]; the
  // branch's dx lands in g[1].
  conv2_.backward(act2_, act3_, d_pre, g[1]);
  relu1_.backward(act1_, act2_, g[1], g[2]);
  conv1_.backward(x, act1_, g[2], g[1]);
  // Shortcut path.
  if (projection_) {
    projection_->backward(x, shortcut_, d_pre, g[2]);
    add(g[1].span(), g[2].span(), dx.span());
  } else {
    add(g[1].span(), d_pre.span(), dx.span());
  }
}

double ResidualBlock::flops_per_sample(const Shape& input) const {
  double total = conv1_.flops_per_sample(input);
  const Shape mid = conv1_.output_shape(input);
  total += relu1_.flops_per_sample(mid);
  total += conv2_.flops_per_sample(mid);
  if (projection_) total += projection_->flops_per_sample(input);
  // Elementwise add + final ReLU.
  return total + 3.0 * sample_numel(mid);
}

void ResidualBlock::footprint(Footprint& f) const {
  conv1_.footprint(f);
  conv2_.footprint(f);
  if (projection_) projection_->footprint(f);
  for (const Tensor* t : {&act1_, &act2_, &act3_, &shortcut_, &pre_relu_}) {
    f.activations += Footprint::bytes(*t);
  }
}

}  // namespace ds
