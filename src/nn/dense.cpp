#include <cmath>
#include <sstream>

#include "nn/layers.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace ds {

FullyConnected::FullyConnected(std::size_t in_features,
                               std::size_t out_features)
    : in_(in_features), out_(out_features) {
  DS_CHECK(in_ > 0 && out_ > 0, "fc dims must be positive");
}

std::string FullyConnected::name() const {
  std::ostringstream os;
  os << "fc " << in_ << "->" << out_;
  return os.str();
}

Shape FullyConnected::output_shape(const Shape& input) const {
  DS_CHECK(input.rank() == 2, "fc input must be rank 2, got " << input.str());
  DS_CHECK(input.dim(1) == in_,
           name() << ": input features " << input.dim(1));
  return Shape{input.dim(0), out_};
}

std::size_t FullyConnected::param_count() const { return out_ * in_ + out_; }

void FullyConnected::init_params(Rng& rng) {
  const double limit = std::sqrt(6.0 / static_cast<double>(in_ + out_));
  const std::size_t w = out_ * in_;
  for (std::size_t i = 0; i < w; ++i) {
    params_[i] = static_cast<float>(rng.uniform(-limit, limit));
  }
  for (std::size_t i = w; i < params_.size(); ++i) params_[i] = 0.0f;
}

void FullyConnected::forward_impl(const Tensor& x, Tensor& y,
                                  bool /*train*/) {
  const std::size_t batch = x.dim(0);
  const float* weights = params_.data();  // out × in
  const float* bias = params_.data() + out_ * in_;
  // Y = X · Wᵀ + b : [batch × in] · [in × out], the per-feature bias fused
  // into the C write-back epilogue.
  GemmEpilogue ep;
  ep.col_bias = bias;
  gemm(Transpose::kNo, Transpose::kYes, batch, out_, in_, 1.0f, x.data(), in_,
       weights, in_, 0.0f, y.data(), out_, ep);
}

void FullyConnected::backward_params_impl(const Tensor& x,
                                          const Tensor& /*y*/,
                                          const Tensor& dy,
                                          Tensor& /*scratch*/) {
  const std::size_t batch = x.dim(0);
  float* dweights = grads_.data();
  float* dbias = grads_.data() + out_ * in_;
  // dW += dYᵀ · X : [out × batch] · [batch × in]
  gemm(Transpose::kYes, Transpose::kNo, out_, in_, batch, 1.0f, dy.data(),
       x.data(), 1.0f, dweights);
  // db += column sums of dY
  for (std::size_t n = 0; n < batch; ++n) {
    axpy(1.0f, {dy.data() + n * out_, out_}, {dbias, out_});
  }
}

void FullyConnected::backward_impl(const Tensor& x, const Tensor& y,
                                   const Tensor& dy, Tensor& dx) {
  backward_params_impl(x, y, dy, dx);
  // dX = dY · W : [batch × out] · [out × in]
  gemm(Transpose::kNo, Transpose::kNo, x.dim(0), in_, out_, 1.0f, dy.data(),
       params_.data(), 0.0f, dx.data());
}

double FullyConnected::flops_per_sample(const Shape& /*input*/) const {
  return 3.0 * gemm_flops(1, out_, in_);
}

}  // namespace ds
