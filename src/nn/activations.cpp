#include <cmath>

#include "nn/layers.hpp"
#include "tensor/ops.hpp"

namespace ds {

// --------------------------------- ReLU ------------------------------------

void ReLU::forward_impl(const Tensor& x, Tensor& y, bool /*train*/) {
  const std::size_t n = x.numel();
  const float* xi = x.data();
  float* yo = y.data();
  for (std::size_t i = 0; i < n; ++i) yo[i] = xi[i] > 0.0f ? xi[i] : 0.0f;
}

void ReLU::backward_impl(const Tensor& x, const Tensor& /*y*/,
                         const Tensor& dy, Tensor& dx) {
  const std::size_t n = x.numel();
  const float* xi = x.data();
  const float* g = dy.data();
  float* out = dx.data();
  for (std::size_t i = 0; i < n; ++i) out[i] = xi[i] > 0.0f ? g[i] : 0.0f;
}

double ReLU::flops_per_sample(const Shape& input) const {
  return 2.0 * sample_numel(input);
}

// --------------------------------- Tanh ------------------------------------

void Tanh::forward_impl(const Tensor& x, Tensor& y, bool /*train*/) {
  const std::size_t n = x.numel();
  const float* xi = x.data();
  float* yo = y.data();
  for (std::size_t i = 0; i < n; ++i) yo[i] = std::tanh(xi[i]);
}

void Tanh::backward_impl(const Tensor& x, const Tensor& y, const Tensor& dy,
                         Tensor& dx) {
  const std::size_t n = x.numel();
  const float* yo = y.data();
  const float* g = dy.data();
  float* out = dx.data();
  for (std::size_t i = 0; i < n; ++i) out[i] = g[i] * (1.0f - yo[i] * yo[i]);
}

double Tanh::flops_per_sample(const Shape& input) const {
  // tanh costed as ~8 flops.
  return 10.0 * sample_numel(input);
}

// -------------------------------- Sigmoid ----------------------------------

void Sigmoid::forward_impl(const Tensor& x, Tensor& y, bool /*train*/) {
  const std::size_t n = x.numel();
  const float* xi = x.data();
  float* yo = y.data();
  for (std::size_t i = 0; i < n; ++i) yo[i] = 1.0f / (1.0f + std::exp(-xi[i]));
}

void Sigmoid::backward_impl(const Tensor& x, const Tensor& y, const Tensor& dy,
                            Tensor& dx) {
  const std::size_t n = x.numel();
  const float* yo = y.data();
  const float* g = dy.data();
  float* out = dx.data();
  for (std::size_t i = 0; i < n; ++i) out[i] = g[i] * yo[i] * (1.0f - yo[i]);
}

double Sigmoid::flops_per_sample(const Shape& input) const {
  return 10.0 * sample_numel(input);
}

// -------------------------------- Flatten ----------------------------------

Shape Flatten::output_shape(const Shape& input) const {
  DS_CHECK(input.rank() >= 2, "flatten needs rank >= 2");
  std::size_t features = 1;
  for (std::size_t i = 1; i < input.rank(); ++i) features *= input.dim(i);
  return Shape{input.dim(0), features};
}

void Flatten::forward_impl(const Tensor& x, Tensor& y, bool /*train*/) {
  copy(x.span(), y.span());
}

void Flatten::backward_impl(const Tensor& /*x*/, const Tensor& /*y*/,
                            const Tensor& dy, Tensor& dx) {
  copy(dy.span(), dx.span());
}

// -------------------------------- Dropout ----------------------------------

Dropout::Dropout(double drop_prob, std::uint64_t seed)
    : drop_prob_(drop_prob), rng_(seed) {
  DS_CHECK(drop_prob_ >= 0.0 && drop_prob_ < 1.0,
           "dropout probability " << drop_prob_ << " out of [0,1)");
}

std::string Dropout::name() const {
  return "dropout p=" + std::to_string(drop_prob_);
}

void Dropout::forward_impl(const Tensor& x, Tensor& y, bool train) {
  const std::size_t n = x.numel();
  if (!train || drop_prob_ == 0.0) {
    copy(x.span(), y.span());
    return;
  }
  mask_.resize(n);
  const float keep_scale = 1.0f / static_cast<float>(1.0 - drop_prob_);
  const float* xi = x.data();
  float* yo = y.data();
  for (std::size_t i = 0; i < n; ++i) {
    mask_[i] = rng_.uniform() < drop_prob_ ? 0.0f : keep_scale;
    yo[i] = xi[i] * mask_[i];
  }
}

void Dropout::backward_impl(const Tensor& x, const Tensor& /*y*/,
                            const Tensor& dy, Tensor& dx) {
  const std::size_t n = x.numel();
  const float* g = dy.data();
  float* out = dx.data();
  if (drop_prob_ == 0.0) {  // p = 0 keeps every unit: identity
    copy(dy.span(), dx.span());
    return;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = g[i] * mask_[i];
}

double Dropout::flops_per_sample(const Shape& input) const {
  return 2.0 * sample_numel(input);
}

}  // namespace ds
