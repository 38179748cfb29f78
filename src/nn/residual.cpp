#include <sstream>

#include "nn/layers.hpp"
#include "tensor/ops.hpp"

namespace ds {

ResidualBlock::ResidualBlock(std::size_t in_channels,
                             std::size_t out_channels, std::size_t stride)
    : in_c_(in_channels), out_c_(out_channels), stride_(stride) {
  stages_.emplace_back(
      std::make_unique<Conv2D>(in_channels, out_channels, 3, stride, 1),
      std::make_unique<ReLU>(),
      std::make_unique<Conv2D>(out_channels, out_channels, 3, 1, 1));
  // The shortcut: identity, or a 1×1 projection (channels or stride change).
  const bool project = in_c_ != out_c_ || stride_ != 1;
  stages_.push_back(project ? Stages(std::make_unique<Conv2D>(
                                  in_channels, out_channels, 1, stride, 0))
                            : Stages());
}

std::string ResidualBlock::name() const {
  std::ostringstream os;
  os << "residual " << in_c_ << "->" << out_c_ << " s" << stride_
     << (stages_[1].empty() ? " (identity)" : " (projected)");
  return os.str();
}

Shape ResidualBlock::output_shape(const Shape& input) const {
  return stages_[0].output_shape(input);
}

void ResidualBlock::forward_impl(const Tensor& x, Tensor& y, bool train) {
  // Inference runs the main stages through inner[0] and inner[1] (ending
  // in inner[0]) and a projection into inner[2]; an identity shortcut is x.
  Tensor* s = scratch().inner;
  const Tensor& main = stages_[0].forward(x, train, s[0], s[1]);
  const Tensor& shortcut = stages_[1].forward(x, train, s[2], s[1]);
  const std::size_t n = y.numel();
  for (std::size_t i = 0; i < n; ++i) {
    const float pre = main[i] + shortcut[i];
    y[i] = pre > 0.0f ? pre : 0.0f;
  }
}

void ResidualBlock::backward_impl(const Tensor& x, const Tensor& y,
                                  const Tensor& dy, Tensor& dx) {
  // Through the output ReLU: y > 0 exactly where the pre-activation was.
  Tensor* g = scratch().inner;
  g[0].resize(dy.shape());
  const std::size_t n = dy.numel();
  for (std::size_t i = 0; i < n; ++i) g[0][i] = y[i] > 0.0f ? dy[i] : 0.0f;
  // The main stages' dx lands in g[1], a projection's in g[2]; an identity
  // shortcut passes g[0] through.
  const Tensor& d_main = stages_[0].backward(x, g[0], g[1], g[2]);
  const Tensor& d_shortcut = stages_[1].backward(x, g[0], g[2], g[1]);
  add(d_main.span(), d_shortcut.span(), dx.span());
}

double ResidualBlock::flops_per_sample(const Shape& input) const {
  // The stages, then the elementwise add and the final ReLU.
  return CompositeLayer::flops_per_sample(input) +
         3.0 * sample_numel(output_shape(input));
}

}  // namespace ds
